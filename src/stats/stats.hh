/**
 * @file
 * Lightweight statistics package, modelled on gem5's Stats.
 *
 * Statistics register themselves with a StatGroup; groups can be dumped as
 * human-readable text or JSON. Two primitive kinds cover everything this
 * project needs: Scalar (a counter or accumulated value) and Average (mean
 * of samples).
 */

#ifndef SECPB_STATS_STATS_HH
#define SECPB_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace secpb
{

class JsonWriter;
class StatGroup;

/** Base class for a named, registered statistic. */
class StatBase
{
  public:
    StatBase(StatGroup &group, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Print "name value # desc" lines. */
    virtual void print(std::ostream &os, const std::string &prefix) const = 0;

    /**
     * The stat's value(s) as (suffix, value) pairs for machine output.
     * A Scalar reports one pair with an empty suffix; composite stats
     * report ".mean"/".count"-style suffixes appended to their name.
     */
    virtual std::vector<std::pair<std::string, double>>
        jsonFields() const = 0;

  protected:
    std::string _name;
    std::string _desc;
};

/** A simple accumulating scalar statistic. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void print(std::ostream &os, const std::string &prefix) const override;
    std::vector<std::pair<std::string, double>> jsonFields() const override;

  private:
    double _value = 0.0;
};

/** Mean of submitted samples. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    double mean() const { return _count ? _sum / _count : 0.0; }
    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }

    void print(std::ostream &os, const std::string &prefix) const override;
    std::vector<std::pair<std::string, double>> jsonFields() const override;

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
};

/**
 * A named collection of statistics, optionally nested under a parent.
 * Hardware models own a StatGroup and hang their stats off it.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Fully qualified dotted name (parent.child...). */
    std::string fullName() const;

    /**
     * Visit every stat in this group and its children in registration
     * order, passing the group's dotted prefix ("sys.secpb.") and the
     * stat. The one traversal that text and JSON dumps share.
     */
    void visitStats(
        const std::function<void(const std::string &prefix,
                                 const StatBase &stat)> &visit) const;

    /** Dump this group and all children as text. */
    void dump(std::ostream &os) const;

    /**
     * Emit this group and all children as one flat JSON object keyed
     * by dotted path ("sys.secpb.persists": 42). The writer must be
     * positioned where a value may start (e.g. after key()).
     */
    void toJson(JsonWriter &w) const;

    /** Look up a stat by name within this group only. */
    const StatBase *find(const std::string &name) const;

    /**
     * Look up a stat by dotted path relative to this group, e.g.
     * "cores0.store_buffer.stalls". Returns nullptr when any segment
     * is missing.
     */
    const StatBase *findByPath(const std::string &path) const;

    /** Direct child groups in registration order. */
    const std::vector<StatGroup *> &children() const { return _children; }

    /** Stats registered directly on this group. */
    const std::vector<StatBase *> &stats() const { return _stats; }

  private:
    friend class StatBase;

    void addStat(StatBase *stat) { _stats.push_back(stat); }
    void addChild(StatGroup *child) { _children.push_back(child); }
    void removeChild(StatGroup *child);

    std::string _name;
    StatGroup *_parent;
    std::vector<StatBase *> _stats;
    std::vector<StatGroup *> _children;
};

} // namespace secpb

#endif // SECPB_STATS_STATS_HH
