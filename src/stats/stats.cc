#include "stats/stats.hh"

#include <iomanip>

#include "stats/json.hh"

namespace secpb
{

StatBase::StatBase(StatGroup &group, const char *name, const char *desc)
    : _name(name), _desc(desc)
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

StatGroup::StatGroup(const char *name, StatGroup *parent)
    : _name(name), _parent(parent)
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
StatGroup::addStat(StatBase *stat)
{
    (_lastStat ? _lastStat->_next : _firstStat) = stat;
    _lastStat = stat;
}

void
StatGroup::addChild(StatGroup *child)
{
    (_lastChild ? _lastChild->_nextSibling : _firstChild) = child;
    _lastChild = child;
}

void
StatGroup::removeChild(StatGroup *child)
{
    StatGroup *prev = nullptr;
    for (StatGroup *g = _firstChild; g; prev = g, g = g->_nextSibling) {
        if (g != child)
            continue;
        (prev ? prev->_nextSibling : _firstChild) = g->_nextSibling;
        if (_lastChild == g)
            _lastChild = prev;
        return;
    }
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
    for (const StatBase *s = _firstStat; s; s = s->_next)
        visit(prefix, *s);
    for (const StatGroup *g = _firstChild; g; g = g->_nextSibling)
        g->visitStats(visit);
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
StatGroup::find(std::string_view name) const
{
    for (const StatBase *s = _firstStat; s; s = s->_next)
        if (name == s->name())
            return s;
    return nullptr;
}

const StatBase *
StatGroup::findByPath(std::string_view path) const
{
    const StatGroup *group = this;
    for (;;) {
        const std::size_t dot = path.find('.');
        if (dot == std::string_view::npos)
            return group->find(path);
        const std::string_view segment = path.substr(0, dot);
        const StatGroup *next = group->_firstChild;
        while (next && segment != next->name())
            next = next->_nextSibling;
        if (!next)
            return nullptr;
        group = next;
        path.remove_prefix(dot + 1);
    }
}

} // namespace secpb
