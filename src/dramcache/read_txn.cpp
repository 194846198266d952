/**
 * @file
 * The timed demand-read engine: executes an organization's AccessPlan
 * against the stacked-DRAM device, one transaction at a time.
 *
 * The engine dispatches on the plan's IssueShape only — which ways to
 * probe, in what order, and what each outcome costs was decided by the
 * plan core, so this file contains no lookup-mode or organization
 * logic.
 *
 * Transactions are plain controller-owned objects.  The callback that
 * finishes one releases it: a hit completion (Single, Chained), the
 * NVM completion of every miss, or — for Broadside — the last probe
 * arrival, which may come after a hit at an earlier position.
 */

#include "common/trace_event/tracer.hpp"
#include "dramcache/access_plan.hpp"
#include "dramcache/controller.hpp"

namespace accord::dramcache
{

ACCORD_HOT void
DramCacheController::read(LineAddr line, ReadDone done,
                          trace_event::TxnId trace)
{
#if ACCORD_CHECKS_ENABLED
    maybeAudit();
#endif

    ReadTxn *txn;
    if (free_txns_.empty()) {
        // accord-lint: allow(hot-alloc) the store grows to the peak of
        // reads in flight; the free stack serves the steady state
        txns_.push_back(std::make_unique<ReadTxn>());
        txn = txns_.back().get();
    } else {
        txn = free_txns_.back();
        free_txns_.pop_back();
    }

    org_->planRead(line, txn->plan);
    txn->done = std::move(done);
    txn->start = eq.now();
    txn->trace = tracer_ != nullptr ? trace : trace_event::kNoTxn;
    txn->parallelHitPos = -1;
    txn->parallelArrived = 0;
    ++in_flight;

    if (txn->trace != trace_event::kNoTxn) {
        tracer_->phaseBegin(txn->trace, trace_event::Phase::Lookup,
                            txn->start);
    }

    switch (txn->plan.shape) {
      case IssueShape::Single: {
        // One magic probe resolves hit and miss alike (Fig 1c bound).
        stats_.cacheReadTransfers.inc();
        stats_.probesPerRead.sample(1.0);
        if (txn->trace != trace_event::kNoTxn) {
            tracer_->point(txn->trace, trace_event::Point::ProbeIssue,
                           eq.now(), txn->plan.probes[0].traceWay);
        }
        cacheOp(txn->plan.probes[0].set, txn->plan.probes[0].way,
                false, [this, txn](Cycle when) {
            const HitLocation loc = resolve(txn->plan, tags);
            if (loc.index >= 0) {
                finishHit(txn, loc.way, loc.way, 0, when);
                releaseTxn(txn);
            } else {
                missConfirmed(txn, when);
            }
        }, false, txn->trace);
        return;
      }

      case IssueShape::Broadside: {
        // All probes leave at once; the hit position is fixed now,
        // against the tag state at issue.
        const HitLocation loc = resolve(txn->plan, tags);
        txn->parallelHitPos = loc.index;
        stats_.probesPerRead.sample(
            static_cast<double>(txn->plan.probeCount));
        for (unsigned i = 0; i < txn->plan.probeCount; ++i) {
            stats_.cacheReadTransfers.inc();
            if (txn->trace != trace_event::kNoTxn) {
                tracer_->point(txn->trace,
                               trace_event::Point::ProbeIssue,
                               eq.now(), txn->plan.probes[i].traceWay);
            }
            cacheOp(txn->plan.probes[i].set, txn->plan.probes[i].way,
                    false, [this, txn](Cycle when) {
                ++txn->parallelArrived;
                const bool last =
                    txn->parallelArrived == txn->plan.probeCount;
                if (txn->parallelHitPos < 0) {
                    if (last)
                        missConfirmed(txn, when);
                    return;
                }
                const auto hit_pos =
                    static_cast<unsigned>(txn->parallelHitPos);
                if (txn->parallelArrived == hit_pos + 1) {
                    finishHit(txn, txn->plan.probes[hit_pos].way,
                              txn->plan.probes[hit_pos].traceWay,
                              hit_pos, when);
                }
                // Later probes still point at the transaction.
                if (last)
                    releaseTxn(txn);
            }, false, txn->trace);
        }
        return;
      }

      case IssueShape::Chained:
        issueProbe(txn, 0);
        return;
    }
}

ACCORD_HOT void
DramCacheController::releaseTxn(ReadTxn *txn)
{
    txn->done.reset();
    free_txns_.push_back(txn);
}

ACCORD_HOT void
DramCacheController::issueProbe(ReadTxn *txn, unsigned index)
{
    stats_.cacheReadTransfers.inc();
    if (txn->trace != trace_event::kNoTxn) {
        tracer_->point(txn->trace, trace_event::Point::ProbeIssue,
                       eq.now(), txn->plan.probes[index].traceWay);
    }
    // Follow-up probes jump the device queue: the lookup already paid
    // a miss at the predicted slot and sits on the critical path.
    cacheOp(txn->plan.probes[index].set, txn->plan.probes[index].way,
            false, [this, txn, index](Cycle when) {
        probeDone(txn, index, when);
    }, /* priority */ index > 0, txn->trace);
}

ACCORD_HOT void
DramCacheController::probeDone(ReadTxn *txn, unsigned index, Cycle when)
{
    // Chained probes check live tags: an overlapping fill may have
    // installed or moved the line since this probe was issued.
    if (stepHits(txn->plan.probes[index], tags)) {
        stats_.probesPerRead.sample(static_cast<double>(index + 1));
        finishHit(txn, txn->plan.probes[index].way,
                  txn->plan.probes[index].traceWay, index, when);
        releaseTxn(txn);
        return;
    }
    if (index + 1 < txn->plan.probeCount) {
        issueProbe(txn, index + 1);
        return;
    }
    stats_.probesPerRead.sample(
        static_cast<double>(txn->plan.probeCount));
    missConfirmed(txn, when);
}

ACCORD_HOT void
DramCacheController::finishHit(ReadTxn *txn, unsigned way,
                               unsigned trace_way, unsigned probe_index,
                               Cycle when)
{
    stats_.readHits.hit();
    stats_.wayPrediction.add(AccessPlan::predictedAt(probe_index));
    stats_.readHitLatency.sample(static_cast<double>(when - txn->start));

    HitContext hit;
    hit.line = txn->plan.ref.line;
    hit.set = txn->plan.probes[probe_index].set;
    hit.way = way;
    hit.probeIndex = probe_index;
    hit.timed = true;
    hit.trace = txn->trace;
    org_->onReadHit(hit);

    --in_flight;
    if (txn->trace != trace_event::kNoTxn) {
        tracer_->point(txn->trace,
                       probe_index == 0
                           ? trace_event::Point::PredictCorrect
                           : trace_event::Point::PredictWrong,
                       when, trace_way);
        tracer_->phaseEnd(txn->trace, trace_event::Phase::Lookup,
                          when);
        tracer_->complete(
            txn->trace,
            probe_index == 0
                ? trace_event::RequestClass::HitPredict
                : trace_event::RequestClass::HitMispredict,
            when);
    }
    if (txn->done)
        txn->done(true, when);

    // Post-completion work (e.g. the CA swap-to-primary) runs off the
    // critical path, after the requester has its data.
    org_->afterReadHit(hit);
}

ACCORD_HOT void
DramCacheController::missConfirmed(ReadTxn *txn, Cycle when)
{
    stats_.readHits.miss();
    org_->onReadMiss(txn->plan.ref);
    stats_.nvmReads.inc();

    if (txn->trace != trace_event::kNoTxn) {
        tracer_->point(txn->trace, trace_event::Point::MissConfirm,
                       when);
        tracer_->phaseEnd(txn->trace, trace_event::Phase::Lookup,
                          when);
        tracer_->phaseBegin(txn->trace, trace_event::Phase::Nvm,
                            when);
    }

    nvm.readLine(txn->plan.ref.line, [this, txn](Cycle nvm_done) {
        stats_.readMissLatency.sample(
            static_cast<double>(nvm_done - txn->start));
        --in_flight;
        if (txn->trace != trace_event::kNoTxn) {
            tracer_->phaseEnd(txn->trace, trace_event::Phase::Nvm,
                              nvm_done);
            tracer_->complete(txn->trace,
                              trace_event::RequestClass::Miss,
                              nvm_done);
        }
        if (txn->done)
            txn->done(false, nvm_done);

        // Fill off the critical path: functional install now, the
        // array writes and any victim writeback posted.
        org_->installAfterMiss(txn->plan.ref.line, /* timed */ true,
                               txn->trace);
        releaseTxn(txn);
    }, txn->trace);
}

} // namespace accord::dramcache
