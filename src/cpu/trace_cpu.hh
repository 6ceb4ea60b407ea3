/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * The evaluation's timing is dominated by the store/persist path; the core
 * is therefore modelled at the retirement boundary: a retire width for
 * plain instructions, per-level load penalties (with memory-level
 * parallelism folded into the miss penalty), and an in-order store buffer
 * feeding the SecPB. The core stalls when the store buffer fills -- the
 * only way persist latency reaches execution time, exactly as in BBB.
 *
 * Instructions are processed in quanta: up to `Quantum` instructions are
 * retired per event, accumulating fractional cycles, then the core
 * reschedules itself. This keeps event counts (and simulation time) low
 * while bounding intra-quantum timestamp skew to a few dozen cycles.
 */

#ifndef SECPB_CPU_TRACE_CPU_HH
#define SECPB_CPU_TRACE_CPU_HH

#include <cmath>
#include <optional>

#include "cpu/store_buffer.hh"
#include "cpu/trace_op.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace secpb
{

/** Effective per-load penalties (cycles), MLP folded in. */
struct LoadPenalties
{
    double l1 = 0.0;    ///< L1 hits are covered by the base CPI.
    double l2 = 8.0;
    double l3 = 20.0;
    double mem = 180.0; ///< PCM read with overlap factor applied.
};

/** The trace-driven core. */
class TraceCpu
{
  public:
    TraceCpu(EventQueue &eq, StoreBuffer &sb, const LoadPenalties &penalties,
             StatGroup &parent)
        : _eq(eq), _sb(sb), _penalties(penalties),
          _stats("cpu", &parent),
          statInstructions(_stats, "instructions", "instructions retired"),
          statLoads(_stats, "loads", "loads retired"),
          statStores(_stats, "stores", "stores retired"),
          statSbStalls(_stats, "sb_stalls",
                       "retire stalls on a full store buffer"),
          statBarriers(_stats, "barriers", "persist barriers retired"),
          statBarrierStalls(_stats, "barrier_stalls",
                            "barriers that waited for the store buffer")
    {}

    /**
     * Begin executing ops pulled from @p gen; @p done fires when the
     * generator is exhausted and the last instruction has retired (the
     * store buffer may still hold stores at that point).
     */
    void
    run(WorkloadGenerator &gen, EventCallback done)
    {
        panic_if(_gen, "TraceCpu::run called while already running");
        _gen = &gen;
        _done = std::move(done);
        _eq.schedule(_eq.curTick(), [this] { wake(); });
    }

    std::uint64_t instructions() const
    {
        return static_cast<std::uint64_t>(statInstructions.value());
    }

  private:
    /** Plain instructions retired per cycle. */
    static constexpr unsigned RetireWidth = 4;
    /** Instructions retired per CPU event. */
    static constexpr unsigned Quantum = 128;
    static_assert(RetireWidth > 0 && Quantum > 0);

    void
    wake()
    {
        double frac = 0.0;

        // A store that previously found the store buffer full retries
        // first; if still blocked, wait for a slot.
        if (_pendingStore) {
            if (!_sb.tryPush(_pendingStore->addr, _pendingStore->value,
                             _pendingStore->asid)) {
                _sb.notifyOnSpace([this] { wake(); });
                return;
            }
            _pendingStore.reset();
        }

        unsigned executed = 0;
        TraceOp op;
        while (executed < Quantum) {
            if (!_gen->next(op)) {
                finish(frac);
                return;
            }
            switch (op.kind) {
              case TraceOp::Kind::Instr:
                frac += static_cast<double>(op.count) / RetireWidth;
                executed += op.count;
                statInstructions += op.count;
                break;
              case TraceOp::Kind::Load:
                frac += 1.0 / RetireWidth + loadPenalty(op.level);
                ++executed;
                ++statInstructions;
                ++statLoads;
                break;
              case TraceOp::Kind::Store:
                frac += 1.0 / RetireWidth;
                ++executed;
                ++statInstructions;
                ++statStores;
                if (!_sb.tryPush(op.addr, op.value, op.asid)) {
                    // Core stalls: charge the cycles accumulated so far,
                    // then retry the push.
                    ++statSbStalls;
                    TRACE_INSTANT_P("cpu", "sb_stall", _eq.curTick(),
                                    op.asid);
                    _pendingStore = PendingStore{op.addr, op.value,
                                                 op.asid};
                    _eq.scheduleIn(ceilCycles(frac), [this] { wake(); });
                    return;
                }
                break;
              case TraceOp::Kind::Barrier:
                frac += 1.0 / RetireWidth;
                ++executed;
                ++statInstructions;
                ++statBarriers;
                if (!_sb.empty()) {
                    // Persist barrier: charge the cycles accumulated so
                    // far, then hold retirement until every prior store
                    // has been accepted into the persistence domain.
                    ++statBarrierStalls;
                    TRACE_INSTANT_P("cpu", "barrier_stall", _eq.curTick(),
                                    op.asid);
                    _eq.scheduleIn(ceilCycles(frac), [this] {
                        _sb.notifyWhenEmpty([this] { wake(); });
                    });
                    return;
                }
                break;
            }
        }
        _eq.scheduleIn(std::max<Cycles>(1, ceilCycles(frac)),
                       [this] { wake(); });
    }

    void
    finish(double frac)
    {
        _gen = nullptr;
        if (_done) {
            EventCallback cb = std::move(_done);
            _done = nullptr;
            _eq.scheduleIn(ceilCycles(frac), std::move(cb));
        }
    }

    double
    loadPenalty(MemLevel level) const
    {
        switch (level) {
          case MemLevel::L1:  return _penalties.l1;
          case MemLevel::L2:  return _penalties.l2;
          case MemLevel::L3:  return _penalties.l3;
          case MemLevel::Mem: return _penalties.mem;
        }
        return 0.0;
    }

    static Cycles
    ceilCycles(double frac)
    {
        return static_cast<Cycles>(std::ceil(frac));
    }

    struct PendingStore
    {
        Addr addr;
        std::uint64_t value;
        std::uint32_t asid;
    };

    EventQueue &_eq;
    StoreBuffer &_sb;
    LoadPenalties _penalties;
    WorkloadGenerator *_gen = nullptr;
    EventCallback _done;
    std::optional<PendingStore> _pendingStore;
    StatGroup _stats;

  public:
    Scalar statInstructions;
    Scalar statLoads;
    Scalar statStores;
    Scalar statSbStalls;
    Scalar statBarriers;
    Scalar statBarrierStalls;
};

} // namespace secpb

#endif // SECPB_CPU_TRACE_CPU_HH
