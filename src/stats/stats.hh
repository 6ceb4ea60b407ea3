/**
 * @file
 * Lightweight statistics package, modelled on gem5's Stats.
 *
 * Statistics register themselves with a StatGroup; groups can be dumped as
 * human-readable text or JSON. Two primitive kinds cover everything this
 * project needs: Scalar (a counter or accumulated value) and Average (mean
 * of samples).
 *
 * Registration allocates nothing. Stats and groups borrow their names and
 * descriptions instead of copying them, so every name and description
 * must be a string literal or storage that outlives the stat or group
 * (SystemConfig::statsName and MultiCoreSystem's slice names are the
 * non-literal cases). A group links its stats and child groups in place,
 * through intrusive lists kept in registration order.
 */

#ifndef SECPB_STATS_STATS_HH
#define SECPB_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
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
    /** @p name and @p desc are borrowed; see the file comment. */
    StatBase(StatGroup &group, const char *name, const char *desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const char *name() const { return _name; }
    const char *desc() const { return _desc; }

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
    const char *_name;
    const char *_desc;

  private:
    friend class StatGroup;

    StatBase *_next = nullptr;  ///< Next stat of the same group.
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
    /** @p name is borrowed; see the file comment. */
    explicit StatGroup(const char *name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const char *name() const { return _name; }

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
    const StatBase *find(std::string_view name) const;

    /**
     * Look up a stat by dotted path relative to this group, e.g.
     * "cores0.store_buffer.stalls". Returns nullptr when any segment
     * is missing.
     */
    const StatBase *findByPath(std::string_view path) const;

  private:
    friend class StatBase;

    void addStat(StatBase *stat);
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    const char *_name;
    StatGroup *_parent;
    /** @name Stats and child groups, each a list in registration order. */
    /** @{ */
    StatBase *_firstStat = nullptr;
    StatBase *_lastStat = nullptr;
    StatGroup *_firstChild = nullptr;
    StatGroup *_lastChild = nullptr;
    StatGroup *_nextSibling = nullptr;
    /** @} */
};

} // namespace secpb

#endif // SECPB_STATS_STATS_HH
