/**
 * @file
 * Scripted workloads: an explicit op list with a small builder API.
 *
 * Used by tests (to drive exact store sequences through the SecPB) and by
 * example applications (to express application-level persistence logic,
 * e.g. a key-value store's write-ahead log, as a trace).
 */

#ifndef SECPB_WORKLOAD_SCRIPTED_HH
#define SECPB_WORKLOAD_SCRIPTED_HH

#include <vector>

#include "cpu/trace_op.hh"

namespace secpb
{

/** A workload defined by an explicit list of TraceOps. */
class ScriptedGenerator : public WorkloadGenerator
{
  public:
    ScriptedGenerator() = default;

    explicit ScriptedGenerator(std::vector<TraceOp> ops)
        : _ops(std::move(ops))
    {}

    /** @name Builder API.
     * Ops default to the current address space set by asid(); store()
     * may still pin one explicitly. persistBarrier()/flushFence() emit
     * the commit-point op that holds retirement until every prior store
     * is in the persistence domain -- so tests and examples can script
     * WAL-commit / journal-commit sequences, including multi-tenant
     * ones, without hand-building TraceOps. */
    /** @{ */
    /** Set the address space subsequent ops belong to. */
    ScriptedGenerator &
    asid(std::uint32_t id)
    {
        _asid = id;
        return *this;
    }

    ScriptedGenerator &
    store(Addr addr, std::uint64_t value)
    {
        return store(addr, value, _asid);
    }

    ScriptedGenerator &
    store(Addr addr, std::uint64_t value, std::uint32_t asid)
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Store;
        op.addr = addr;
        op.value = value;
        op.asid = asid;
        _ops.push_back(op);
        return *this;
    }

    ScriptedGenerator &
    load(MemLevel level = MemLevel::L1)
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Load;
        op.level = level;
        op.asid = _asid;
        _ops.push_back(op);
        return *this;
    }

    ScriptedGenerator &
    instr(std::uint32_t count)
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Instr;
        op.count = count;
        op.asid = _asid;
        _ops.push_back(op);
        return *this;
    }

    /** A persist barrier (e.g. a WAL commit's ordering point). */
    ScriptedGenerator &
    persistBarrier()
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Barrier;
        op.asid = _asid;
        _ops.push_back(op);
        return *this;
    }

    /** Flush + fence (clwb; sfence): same ordering semantics here --
     *  the persistence domain is the SecPB, so a fence that waits for
     *  flushed lines to persist is a persist barrier. */
    ScriptedGenerator &
    flushFence()
    {
        return persistBarrier();
    }
    /** @} */

    bool
    next(TraceOp &op) override
    {
        if (_cursor >= _ops.size())
            return false;
        op = _ops[_cursor++];
        return true;
    }

    std::size_t size() const { return _ops.size(); }

  private:
    std::vector<TraceOp> _ops;
    std::size_t _cursor = 0;
    std::uint32_t _asid = 0;
};

} // namespace secpb

#endif // SECPB_WORKLOAD_SCRIPTED_HH
