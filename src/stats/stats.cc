#include "stats/stats.hh"

#include <algorithm>
#include <iomanip>

#include "stats/json.hh"

namespace secpb
{

StatBase::StatBase(StatGroup &group, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    group.addStat(this);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + _name)
       << std::right << std::setw(16) << _value
       << "  # " << _desc << "\n";
}

std::vector<std::pair<std::string, double>>
Scalar::jsonFields() const
{
    return {{"", _value}};
}

void
Average::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + _name)
       << std::right << std::setw(16) << mean()
       << "  # " << _desc << " (n=" << _count << ")\n";
}

std::vector<std::pair<std::string, double>>
Average::jsonFields() const
{
    return {{".mean", mean()}, {".count", static_cast<double>(_count)}};
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name)), _parent(parent)
{
    if (_parent)
        _parent->addChild(this);
}

StatGroup::~StatGroup()
{
    if (_parent)
        _parent->removeChild(this);
}

void
StatGroup::removeChild(StatGroup *child)
{
    auto it = std::find(_children.begin(), _children.end(), child);
    if (it != _children.end())
        _children.erase(it);
}

std::string
StatGroup::fullName() const
{
    if (_parent)
        return _parent->fullName() + "." + _name;
    return _name;
}

void
StatGroup::visitStats(
    const std::function<void(const std::string &prefix,
                             const StatBase &stat)> &visit) const
{
    const std::string prefix = fullName() + ".";
    for (const StatBase *s : _stats)
        visit(prefix, *s);
    for (const StatGroup *child : _children)
        child->visitStats(visit);
}

void
StatGroup::dump(std::ostream &os) const
{
    visitStats([&os](const std::string &prefix, const StatBase &s) {
        s.print(os, prefix);
    });
}

void
StatGroup::toJson(JsonWriter &w) const
{
    w.beginObject();
    visitStats([&w](const std::string &prefix, const StatBase &s) {
        for (const auto &[suffix, value] : s.jsonFields())
            w.field(prefix + s.name() + suffix, value);
    });
    w.endObject();
}

const StatBase *
StatGroup::find(const std::string &name) const
{
    for (const StatBase *s : _stats)
        if (s->name() == name)
            return s;
    return nullptr;
}

const StatBase *
StatGroup::findByPath(const std::string &path) const
{
    const StatGroup *group = this;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t dot = path.find('.', pos);
        if (dot == std::string::npos)
            return group->find(path.substr(pos));
        const std::string segment = path.substr(pos, dot - pos);
        const StatGroup *next = nullptr;
        for (const StatGroup *child : group->_children) {
            if (child->name() == segment) {
                next = child;
                break;
            }
        }
        if (!next)
            return nullptr;
        group = next;
        pos = dot + 1;
    }
}

} // namespace secpb
