/**
 * @file
 * The L4 DRAM-cache controller: the timed transaction engine plus a
 * thin functional shell.
 *
 * The access path is split into three layers:
 *
 *  - the pure decision core (access_plan.hpp) turns a line address
 *    into a side-effect-free probe/transfer plan;
 *  - an Organization strategy (organization.hpp; set-associative or
 *    column-associative, chosen by a switch in makeOrganization())
 *    owns placement, install, and per-hit state updates;
 *  - this controller executes plans: untimed for warmRead()/
 *    warmWriteback(), and fully timed against the stacked-DRAM array
 *    and the NVM main memory for read()/writeback(), emitting trace
 *    events and latency statistics.
 *
 * Both execution shells consume the SAME plan from the SAME strategy,
 * so the functional and timed paths agree on hit/miss, transfer, and
 * prediction accounting by construction.
 */

#ifndef ACCORD_DRAMCACHE_CONTROLLER_HPP
#define ACCORD_DRAMCACHE_CONTROLLER_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/invariant_auditor.hpp"
#include "common/metrics/registry.hpp"
#include "common/stats.hpp"
#include "common/trace_event/trace_event.hpp"
#include "core/way_policy.hpp"
#include "dram/dram_system.hpp"
#include "dramcache/enums.hpp"
#include "dramcache/layout.hpp"
#include "dramcache/organization.hpp"
#include "dramcache/params.hpp"
#include "dramcache/tag_store.hpp"
#include "nvm/nvm_system.hpp"

namespace accord::trace_event
{
class Tracer;
}

namespace accord::dramcache
{

/** The L4 DRAM-cache controller. */
class DramCacheController : private OrgServices
{
  public:
    /**
     * Demand-read completion: hit/miss and data-ready cycle.  A core's
     * `[this]` capture fits inline.
     */
    using ReadDone = InlineFunction<void(bool hit, Cycle when), 16>;

    /**
     * @param params  cache organization
     * @param policy  way steering/prediction; may be null for
     *                direct-mapped and column-associative caches
     * @param timing  stacked-DRAM parameters; capacityBytes is forced
     *                to params.capacityBytes
     * @param eq      shared event queue
     * @param nvm     main memory below the cache
     */
    DramCacheController(const DramCacheParams &params,
                        std::unique_ptr<core::WayPolicy> policy,
                        dram::TimingParams timing, EventQueue &eq,
                        nvm::NvmSystem &nvm);

    ~DramCacheController();

    // --- timed path -----------------------------------------------

    /**
     * Timed demand read (L3 miss).  `txn` is the caller's trace
     * transaction (kNoTxn when tracing is off); the controller emits
     * lookup/NVM phases and prediction-outcome points into it and
     * completes it with its request class.
     */
    void read(LineAddr line, ReadDone done,
              trace_event::TxnId txn = trace_event::kNoTxn);

    /** Timed writeback (dirty L3 eviction); posted. */
    void writeback(LineAddr line,
                   trace_event::TxnId txn = trace_event::kNoTxn);

    // --- functional path ------------------------------------------

    /** Untimed demand read; returns hit/miss. */
    bool warmRead(LineAddr line);

    /** Untimed writeback. */
    void warmWriteback(LineAddr line);

    // --- introspection --------------------------------------------

    const DramCacheStats &stats() const { return stats_; }

    /** Reset controller stats AND the HBM device channel stats. */
    void resetStats();

    /**
     * Exclude the functional accesses between begin and end from
     * stats(): the counters are snapshotted at begin and restored at
     * end, while cache/tag/predictor state keeps updating.  This is
     * how sampled simulation (Request::warmup, see
     * trace/sample.hpp) warms the arrays before a selected window
     * without polluting measured statistics.  Warm-shell only, must
     * not nest or span resetStats(); way-policy internal counters are
     * not covered (docs/TRACES.md, warmup policy).
     */
    void beginStatsExclusion();
    void endStatsExclusion();
    bool statsExcluded() const { return stats_excluded_; }

    /**
     * Register controller metrics under `prefix` (typically "l4"):
     * the lookup/way-prediction ratios, transfer and writeback
     * counters, latency averages, the transfers-per-read gauge, and
     * (when a way policy is attached) its internals under
     * `prefix`.policy.  The HBM device registers separately via
     * hbm().registerMetrics().
     */
    void registerMetrics(MetricRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach a transaction tracer: the stacked-DRAM device registers
     * its channel tracks and the controller starts emitting lifecycle
     * events for every traced transaction it is handed.
     */
    void attachTracer(trace_event::Tracer &tracer);

    const core::CacheGeometry &geometry() const { return geom; }
    const TagStore &tagStore() const { return tags; }
    core::WayPolicy *policy() { return policy_.get(); }
    dram::DramSystem &hbm() { return hbm_; }
    const dram::DramSystem &hbm() const { return hbm_; }

    /** Timed reads holding a transaction (telemetry `pool_live`). */
    std::size_t
    liveTxns() const
    {
        return txns_.size() - free_txns_.size();
    }

    /**
     * Bytes of one transaction object, 0 until the first timed read
     * (telemetry `pool_block_bytes`).
     */
    std::size_t
    txnBytes() const
    {
        return txns_.empty() ? 0 : sizeof(ReadTxn);
    }

    /**
     * Host bytes currently backing per-set cache state: the packed
     * tag words, organization-private state, and (when attached) the
     * way policy's own tables.  Feeds the resident-state telemetry
     * gauge and the gigascale footprint budget.
     */
    std::uint64_t
    residentStateBytes() const
    {
        return tags.residentStateBytes() + org_->residentStateBytes()
            + (policy_ ? policy_->residentStateBytes() : 0);
    }

    /** True when no timed transactions are in flight. */
    bool quiesced() const { return in_flight == 0; }

    /** Short description ("dm", "2-way pws+gws serial", ...). */
    std::string describe() const;

    /**
     * Record every violated model-state invariant into the auditor:
     * tag-store consistency, organization-specific placement rules,
     * policy-internal tables, and (when quiesced) stats identities.
     * Always available; the periodic self-audit driven by
     * DramCacheParams::auditInterval calls this under
     * ACCORD_CHECKS_ENABLED and panics on any violation.
     */
    void audit(InvariantAuditor &auditor) const;

    /**
     * audit() restricted to sets [firstSet, lastSet), plus the cheap
     * global checks (policy tables when the window wraps to 0, stats
     * identities when quiesced).  Cost is bounded by the window, not
     * the cache — the periodic self-audit rotates this window.
     */
    void auditWindow(InvariantAuditor &auditor, std::uint64_t firstSet,
                     std::uint64_t lastSet) const;

  private:
    // --- OrgServices (device access lent to the organization) -----

    void cacheOp(std::uint64_t set, unsigned way, bool is_write,
                 dram::MemCallback on_complete, bool priority,
                 trace_event::TxnId txn) override;

    void nvmWrite(LineAddr line, dram::MemCallback on_complete,
                  trace_event::TxnId txn) override;

    std::function<dram::MemCallback()>
    beginFillGroup(trace_event::TxnId parent, LineAddr line,
                   trace_event::TxnId &fill_txn) override;

    // --- timed read engine (read_txn.cpp) -------------------------

    /**
     * In-flight state of one timed demand read.  The controller owns
     * every transaction; device callbacks hold a raw pointer, and the
     * callback that finishes the read releases it to the free stack.
     * Reuse assigns every field afresh.
     */
    struct ReadTxn
    {
        AccessPlan plan;
        ReadDone done;
        Cycle start = 0;

        /** Trace transaction of this read (kNoTxn when untraced). */
        trace_event::TxnId trace = trace_event::kNoTxn;

        /** Broadside issue: probe index of the resident way, -1 if absent. */
        int parallelHitPos = -1;
        unsigned parallelArrived = 0;
    };

    void issueProbe(ReadTxn *txn, unsigned index);
    void probeDone(ReadTxn *txn, unsigned index, Cycle when);
    void missConfirmed(ReadTxn *txn, Cycle when);
    void finishHit(ReadTxn *txn, unsigned way, unsigned trace_way,
                   unsigned probe_index, Cycle when);

    /** Return a finished transaction to the free stack. */
    void releaseTxn(ReadTxn *txn);

    // --- shared shells --------------------------------------------

    /** Writeback routing shared by both paths. */
    void writebackCommon(LineAddr line, bool timed,
                         trace_event::TxnId txn = trace_event::kNoTxn);

    /** Count down to the next periodic self-audit and run it. */
    void maybeAudit();

    DramCacheParams params;

    core::CacheGeometry geom;
    std::unique_ptr<core::WayPolicy> policy_;
    EventQueue &eq;
    nvm::NvmSystem &nvm;
    dram::DramSystem hbm_;
    CacheLayout layout;
    TagStore tags;
    DramCacheStats stats_;

    /** Snapshot taken by beginStatsExclusion(). */
    DramCacheStats excluded_saved_;
    bool stats_excluded_ = false;

    std::unique_ptr<OrgStrategy> org_;

    /**
     * Every transaction ever created, destroyed only with the
     * controller.  Events still queued at teardown hold raw pointers
     * into it and never dereference them when destroyed.
     */
    std::vector<std::unique_ptr<ReadTxn>> txns_;

    /** Released transactions, reused before the store grows. */
    std::vector<ReadTxn *> free_txns_;

    unsigned in_flight = 0;

    /** Transaction tracer (null when tracing is off). */
    trace_event::Tracer *tracer_ = nullptr;

    /** Demand reads until the next periodic self-audit. */
    std::uint32_t audit_countdown = 0;

    /** First set of the next periodic self-audit's rotating window. */
    std::uint64_t audit_cursor = 0;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_CONTROLLER_HPP
