/**
 * @file
 * Server-scale heavy-traffic generators.
 *
 * The synthetic SPEC profiles (workload/synthetic.hh) reproduce the
 * paper's aggregate statistics; nothing in them resembles production
 * NVM traffic. These generators model the write *shapes* that decide
 * the runtime-overhead vs recovery/battery tradeoff in real deployments
 * (Triad-NVM, the eADR study): log-append bursts with commit barriers,
 * checkpoint storms, journal commit trains, skewed key reuse, and
 * thousands of tenants hammering one machine.
 *
 * All of them derive from QueueGenerator: a seeded-Rng base that emits
 * through an internal op queue, counts every emission (WorkloadCounters
 * feed the per-workload sampler channels), and stops at an instruction
 * budget -- so any (params, budget, seed) triple is a bit-identical
 * TraceOp stream on any host, and recording + replaying one is
 * indistinguishable from running it live.
 */

#ifndef SECPB_WORKLOAD_GENERATORS_HH
#define SECPB_WORKLOAD_GENERATORS_HH

#include <deque>
#include <memory>

#include "cpu/trace_op.hh"
#include "sim/rng.hh"
#include "workload/trace_file.hh"
#include "workload/zipf.hh"

namespace secpb
{

/** Seeded base: subclasses script requests into the op queue. */
class QueueGenerator : public WorkloadGenerator
{
  public:
    QueueGenerator(std::uint64_t total_instructions, std::uint64_t seed)
        : _rng(seed), _budget(total_instructions)
    {}

    bool
    next(TraceOp &op) override
    {
        while (_queue.empty()) {
            if (_ctr.instructions >= _budget)
                return false;
            refill();
            if (_queue.empty())
                return false;  // a refill that emits nothing ends it
        }
        op = _queue.front();
        _queue.pop_front();
        countOp(_ctr, op);
        return true;
    }

    const WorkloadCounters *counters() const override { return &_ctr; }

  protected:
    /** Script the next request (one or more ops) into the queue. */
    virtual void refill() = 0;

    /** @name Emission helpers. */
    /** @{ */
    void
    emitInstr(std::uint32_t count)
    {
        if (count == 0)
            return;
        TraceOp op;
        op.kind = TraceOp::Kind::Instr;
        op.count = count;
        _queue.push_back(op);
    }

    void
    emitLoad(MemLevel level, Addr addr = 0, std::uint32_t asid = 0)
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Load;
        op.level = level;
        op.addr = addr;
        op.asid = asid;
        _queue.push_back(op);
    }

    /** Store a fresh pseudo-random value to word @p word of @p block. */
    void
    emitStore(Addr block, unsigned word, std::uint32_t asid = 0)
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Store;
        op.addr = block + 8 * (word % (BlockSize / 8));
        op.value = _rng.next();
        op.asid = asid;
        _queue.push_back(op);
    }

    void
    emitBarrier(std::uint32_t asid = 0)
    {
        TraceOp op;
        op.kind = TraceOp::Kind::Barrier;
        op.asid = asid;
        _queue.push_back(op);
    }

    /** A load whose hit level follows a hot/warm/cold mixture. */
    MemLevel
    drawLevel(double p_l2, double p_l3, double p_mem)
    {
        const double u = _rng.uniform();
        if (u < p_mem)
            return MemLevel::Mem;
        if (u < p_mem + p_l3)
            return MemLevel::L3;
        if (u < p_mem + p_l3 + p_l2)
            return MemLevel::L2;
        return MemLevel::L1;
    }
    /** @} */

    std::uint64_t budget() const { return _budget; }
    std::uint64_t emitted() const { return _ctr.instructions; }

    Rng _rng;

  private:
    std::uint64_t _budget;
    std::deque<TraceOp> _queue;
    WorkloadCounters _ctr;
};

/** Parameters of the KV-store / write-ahead-log generator. */
struct KvWalParams
{
    double puts = 0.6;          ///< P(request is a put).
    double scans = 0.05;        ///< P(request is a scan); rest are gets.
    std::uint64_t keys = 4096;  ///< Distinct keys (one block each).
    double zipf = 0.99;         ///< Key-popularity skew (YCSB default).
    unsigned valueWords = 2;    ///< 8-byte words written per put.
    unsigned walWords = 2;      ///< WAL record words per put.
    unsigned scanLength = 16;   ///< Keys touched by one scan.
    unsigned thinkInstrs = 48;  ///< Mean non-memory gap per request.
    /** Puts between checkpoints; 0 disables checkpointing. */
    unsigned checkpointEvery = 512;
    /** Blocks rewritten by one checkpoint storm. */
    unsigned checkpointBlocks = 64;
};

/**
 * Put-heavy KV store with a write-ahead log: each put appends a WAL
 * record and commits with a persist barrier before updating the table
 * in place; periodic checkpoints storm a sequential region and fence.
 * This is the log-append + checkpoint shape Triad-NVM identifies as the
 * decisive recovery-vs-overhead workload.
 */
class KvWalGenerator : public QueueGenerator
{
  public:
    KvWalGenerator(const KvWalParams &params,
                   std::uint64_t total_instructions, std::uint64_t seed);

    std::uint64_t putsIssued() const { return _puts; }
    std::uint64_t checkpoints() const { return _checkpoints; }

  protected:
    void refill() override;

  private:
    KvWalParams _p;
    ZipfSampler _zipf;
    Addr _walBase;
    Addr _ckptBase;
    std::uint64_t _walBlocks;
    std::uint64_t _walCursor = 0;  ///< Word offset into the WAL ring.
    std::uint64_t _puts = 0;
    std::uint64_t _checkpoints = 0;
};

/** Parameters of the journal-burst generators (fs_journal, pstore). */
struct JournalParams
{
    /** Metadata stores scattered between commits (one transaction). */
    unsigned txnStores = 12;
    /** Distinct metadata blocks those stores fall into. */
    std::uint64_t metaBlocks = 1024;
    /** Transactions batched into one commit burst. */
    unsigned commitEvery = 4;
    /** Sequential journal blocks written per commit burst. */
    unsigned journalBlocks = 16;
    /** Mean non-memory gap between transactions. */
    unsigned thinkInstrs = 96;
    /** Requests between panic dumps; 0 disables them (fs_journal). */
    unsigned dumpEvery = 0;
    /** Back-to-back blocks one panic dump writes (pstore shape). */
    unsigned dumpBlocks = 128;
};

/**
 * Filesystem-journal / pstore burst patterns: quiet metadata updates,
 * then a commit train -- descriptor block, data blocks, commit record,
 * fence -- every few transactions. The pstore personality adds rare
 * panic dumps: a long, uninterrupted sequential store burst ending in a
 * barrier, which is the worst case for SecPB full-stall behaviour.
 */
class JournalGenerator : public QueueGenerator
{
  public:
    JournalGenerator(const JournalParams &params,
                     std::uint64_t total_instructions, std::uint64_t seed);

    std::uint64_t commits() const { return _commits; }
    std::uint64_t dumps() const { return _dumps; }

  protected:
    void refill() override;

  private:
    JournalParams _p;
    Addr _journalBase;
    Addr _dumpBase;
    std::uint64_t _journalCursor = 0;  ///< Block offset into the ring.
    std::uint64_t _journalRing;
    unsigned _txnsSinceCommit = 0;
    std::uint64_t _txns = 0;
    std::uint64_t _commits = 0;
    std::uint64_t _dumps = 0;
};

/** Parameters of the Zipfian multi-tenant mix. */
struct ZipfMixParams
{
    std::uint32_t tenants = 2048;      ///< Distinct ASIDs.
    double tenantZipf = 1.1;           ///< Skew of tenant request rates.
    std::uint64_t keysPerTenant = 64;  ///< Blocks per tenant.
    double keyZipf = 0.99;             ///< Skew within a tenant.
    double puts = 0.5;                 ///< P(store | request).
    unsigned thinkInstrs = 32;         ///< Mean gap between requests.
    /** Puts by one tenant between its commit barriers. */
    unsigned commitEvery = 8;
};

/**
 * Thousands of address spaces multiplexed through one SecPB: tenant
 * and key choice are both Zipfian, so a hot head of tenants dominates
 * while a long tail keeps the ASID space churning -- the multi-tenant
 * "millions of users" shape for the multi-ASID path.
 */
class ZipfMixGenerator : public QueueGenerator
{
  public:
    ZipfMixGenerator(const ZipfMixParams &params,
                     std::uint64_t total_instructions, std::uint64_t seed);

  protected:
    void refill() override;

  private:
    ZipfMixParams _p;
    ZipfSampler _tenantZipf;
    ZipfSampler _keyZipf;
    std::vector<std::uint32_t> _putsSinceCommit;  ///< Per tenant.
};

/** Parameters of the open-loop bursty-arrival wrapper. */
struct BurstParams
{
    /** Inner ops passed through per burst. */
    std::uint64_t onOps = 2000;
    /** Duty cycle in (0, 1]: fraction of wall instructions that are
     *  burst; the idle gap is sized from what the burst emitted. */
    double duty = 0.25;
    /** Idle bundle granularity (instructions per emitted Instr op). */
    std::uint32_t idleBundle = 64;
};

/**
 * Open-loop duty-cycled arrival modulation of any inner workload:
 * bursts of back-to-back requests (the inner think time stripped)
 * alternating with idle gaps sized to hit the duty cycle. Open loop
 * means the idle/burst schedule never reacts to backpressure -- exactly
 * the arrival process that drives a SecPB into full-stall and the
 * adaptive drain policy into its pressure regime.
 */
class BurstyArrivalGenerator : public WorkloadGenerator
{
  public:
    BurstyArrivalGenerator(std::unique_ptr<WorkloadGenerator> inner,
                           const BurstParams &params);

    bool next(TraceOp &op) override;
    const WorkloadCounters *counters() const override { return &_ctr; }

  private:
    std::unique_ptr<WorkloadGenerator> _inner;
    BurstParams _p;
    WorkloadCounters _ctr;
    std::uint64_t _opsThisBurst = 0;
    std::uint64_t _idleLeft = 0;      ///< Idle instructions still owed.
    bool _innerDone = false;
};

} // namespace secpb

#endif // SECPB_WORKLOAD_GENERATORS_HH
