#include "dp/sdp_system.hh"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "stats/registry.hh"
#include "trace/chrome_trace.hh"

#include "dp/interrupt_core.hh"
#include "dp/spinning_core.hh"
#include "dp/sw_ready_set_core.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace dp {

namespace {

/** Table I cache geometry. */
const mem::CacheGeometry l1Geom{32 * 1024, 4, cacheLineBytes};
const mem::CacheGeometry llcGeom{16ull * 1024 * 1024, 16,
                                 cacheLineBytes};

/** Round @p v up to a multiple of @p m. */
unsigned
roundUpTo(unsigned v, unsigned m)
{
    return (v + m - 1) / m * m;
}

} // namespace

const char *
toString(PlaneKind k)
{
    switch (k) {
      case PlaneKind::Spinning:
        return "spinning";
      case PlaneKind::HyperPlane:
        return "hyperplane";
      case PlaneKind::HyperPlaneSwReady:
        return "hyperplane-sw-ready";
      case PlaneKind::InterruptDriven:
        return "interrupt-driven";
    }
    return "?";
}

const char *
toString(QueueOrg o)
{
    switch (o) {
      case QueueOrg::ScaleOut:
        return "scale-out";
      case QueueOrg::ScaleUp2:
        return "scale-up-2";
      case QueueOrg::ScaleUpAll:
        return "scale-up";
    }
    return "?";
}

void
SdpConfig::validate() const
{
    auto fail = [](const std::string &msg) {
        throw std::invalid_argument("SdpConfig: " + msg);
    };
    auto rate01 = [&fail](double v, const char *name) {
        if (!(v >= 0.0 && v <= 1.0))
            fail(std::string(name) + " must be in [0, 1]");
    };

    if (numCores == 0)
        fail("numCores must be >= 1");
    if (numQueues == 0)
        fail("numQueues must be >= 1");
    unsigned clusters = 1;
    switch (org) {
      case QueueOrg::ScaleOut:
        clusters = numCores;
        break;
      case QueueOrg::ScaleUp2:
        clusters = std::max(1u, numCores / 2);
        break;
      case QueueOrg::ScaleUpAll:
        clusters = 1;
        break;
    }
    if (numQueues < clusters)
        fail("need at least one queue per cluster (numQueues < clusters)");
    if (numCores % clusters != 0)
        fail("cores must divide evenly into clusters");

    if (monitoringWays < 2 || monitoringWays > 8)
        fail("monitoringWays must be in [2, 8]");
    if (monitoringBanks == 0)
        fail("monitoringBanks must be >= 1");
    if (monitoringMaxWalkSteps == 0)
        fail("monitoringMaxWalkSteps must be >= 1");
    if (monitoringCapacity != 0) {
        const unsigned slice = monitoringWays * monitoringBanks;
        if (monitoringCapacity < slice)
            fail("monitoringCapacity must be >= ways * banks");
        if (monitoringCapacity % slice != 0)
            fail("monitoringCapacity must divide evenly into "
                 "banks * ways");
    }

    if (batchSize == 0)
        fail("batchSize must be >= 1");
    if (!(offeredRatePerSec > 0.0))
        fail("offeredRatePerSec must be > 0");
    if (!(measureUs > 0.0))
        fail("measureUs must be > 0");
    if (warmupUs < 0.0)
        fail("warmupUs must be >= 0");
    if (maxQueueDepth == 0)
        fail("maxQueueDepth must be >= 1");

    rate01(fault.dropSnoopRate, "fault.dropSnoopRate");
    rate01(fault.delaySnoopRate, "fault.delaySnoopRate");
    rate01(fault.suppressWakeRate, "fault.suppressWakeRate");
    if (fault.delaySnoopRate > 0.0 && !(fault.delayMeanUs > 0.0))
        fail("fault.delayMeanUs must be > 0 when snoops are delayed");
    if (fault.spuriousWakesPerSec < 0.0)
        fail("fault.spuriousWakesPerSec must be >= 0");
    if (fault.stormRatePerSec < 0.0)
        fail("fault.stormRatePerSec must be >= 0");
    if (fault.stormRatePerSec > 0.0 && fault.stormBurst == 0)
        fail("fault.stormBurst must be >= 1 when storms are enabled");
    if (fault.stormQueue != invalidQueueId &&
        fault.stormQueue >= numQueues) {
        fail("fault.stormQueue out of range");
    }

    const std::string tenantErr =
        validateTenantSpecs(tenants, numQueues);
    if (!tenantErr.empty())
        fail(tenantErr);

    if (trace.enable && trace.bufferCapacity == 0)
        fail("trace.bufferCapacity must be >= 1 when tracing");
    if (trace.sampleEveryUs < 0.0)
        fail("trace.sampleEveryUs must be >= 0");

    if (recovery.watchdog && !(recovery.watchdogPeriodUs > 0.0))
        fail("recovery.watchdogPeriodUs must be > 0");
    if (recovery.gracefulDegradation && recovery.fallbackPollPeriod == 0)
        fail("recovery.fallbackPollPeriod must be >= 1");
}

SdpSystem::SdpSystem(const SdpConfig &cfg)
    : cfg_((cfg.validate(), cfg)), queues_(cfg.numQueues)
{
    build();
}

SdpSystem::~SdpSystem()
{
    for (auto &unit : qwaitUnits_)
        mem_->unwatch(unit.get());
}

unsigned
SdpSystem::numClusters() const
{
    switch (cfg_.org) {
      case QueueOrg::ScaleOut:
        return cfg_.numCores;
      case QueueOrg::ScaleUp2:
        return std::max(1u, cfg_.numCores / 2);
      case QueueOrg::ScaleUpAll:
        return 1;
    }
    return 1;
}

unsigned
SdpSystem::clusterOf(QueueId qid) const
{
    const unsigned clusters = numClusters();
    const unsigned perCluster = cfg_.numQueues / clusters;
    return std::min(clusters - 1, qid / perCluster);
}

core::QwaitUnit *
SdpSystem::qwaitUnit(unsigned cluster)
{
    if (cluster >= qwaitUnits_.size())
        return nullptr;
    return qwaitUnits_[cluster].get();
}

void
SdpSystem::build()
{
    hp_assert(cfg_.numCores >= 1, "need at least one data-plane core");
    hp_assert(cfg_.numQueues >= numClusters(),
              "need at least one queue per cluster");
    hp_assert(cfg_.numCores % numClusters() == 0,
              "cores must divide evenly into clusters");

    if (cfg_.trace.enable) {
        // One shard, every event: the simulator is single-threaded and
        // traces the whole run.
        tracer_ = std::make_unique<trace::FlightRecorder>(
            1, cfg_.trace.bufferCapacity, 1);
        breakdown_ = std::make_unique<trace::LatencyBreakdown>();
    }

    mem_ = std::make_unique<mem::MemorySystem>(cfg_.numCores, l1Geom,
                                               llcGeom);
    mem_->setTracer(tracer_.get(), &eq_);
    // Stateful app workloads shard by queue id, one shard per queue,
    // as the UDP server does.
    workload_ = makeWorkload(cfg_.workload, cfg_.seed, cfg_.numQueues);

    // Traffic shape -> per-queue weights (+ optional static imbalance).
    Rng shapeRng(cfg_.seed ^ 0x5eedULL);
    weights_ = traffic::shapeWeights(cfg_.shape, cfg_.numQueues,
                                     shapeRng);
    if (cfg_.imbalance > 0.0)
        weights_ = traffic::applyImbalance(weights_, cfg_.imbalance);

    const unsigned clusters = numClusters();
    const unsigned coresPerCluster = cfg_.numCores / clusters;
    const unsigned queuesPerCluster = cfg_.numQueues / clusters;
    clusterBacklogs_.assign(clusters, 0);
    coreCluster_.resize(cfg_.numCores);

    const bool hyper = cfg_.plane == PlaneKind::HyperPlane ||
                       cfg_.plane == PlaneKind::HyperPlaneSwReady;

    if (cfg_.fault.any()) {
        faults_ = std::make_unique<fault::FaultInjector>(
            cfg_.fault, cfg_.seed ^ 0xfa017ULL);
    }
    fallbacks_.resize(clusters);
    if (hyper && cfg_.recovery.gracefulDegradation) {
        for (auto &fb : fallbacks_)
            fb = std::make_unique<fault::FallbackSet>();
    }

    if (hyper) {
        // One QwaitUnit per cluster, snooping that cluster's doorbell
        // address slice.
        for (unsigned c = 0; c < clusters; ++c) {
            core::QwaitConfig qcfg;
            const unsigned span = c + 1 == clusters
                ? cfg_.numQueues - c * queuesPerCluster
                : queuesPerCluster;
            qcfg.monitoring.ways = cfg_.monitoringWays;
            qcfg.monitoring.banks = cfg_.monitoringBanks;
            qcfg.monitoring.maxWalkSteps = cfg_.monitoringMaxWalkSteps;
            const unsigned slice =
                cfg_.monitoringWays * cfg_.monitoringBanks;
            qcfg.monitoring.capacity = cfg_.monitoringCapacity != 0
                ? cfg_.monitoringCapacity
                : roundUpTo(std::max(1024u, span + span / 4), slice);
            qcfg.ready.capacity = cfg_.numQueues;
            qcfg.ready.policy = cfg_.policy;
            qcfg.qwaitLatency = cfg_.qwaitLatency;
            auto unit = std::make_unique<core::QwaitUnit>(qcfg);

            const QueueId lo = c * queuesPerCluster;
            const QueueId hi = c + 1 == clusters
                ? cfg_.numQueues
                : lo + queuesPerCluster;
            unit->setTracer(tracer_.get(), &eq_,
                            trace::trackHardwareBase + c);
            if (breakdown_) {
                const Tick lookup =
                    unit->monitoringSet().config().lookupCycles;
                unit->setActivationHook([this, lookup](QueueId q) {
                    breakdown_->onActivate(q, eq_.now(), lookup);
                });
            }
            for (QueueId q = lo; q < hi; ++q)
                bindQueue(*unit, c, q);
            mem_->watchRange(
                queueing::AddressMap::doorbellAddr(lo),
                queueing::AddressMap::doorbellAddr(hi - 1) +
                    cacheLineBytes,
                unit.get());
            qwaitUnits_.push_back(std::move(unit));
        }
        // Tenant QoS: each group's WRR weight lands on its queues'
        // ready-set entries (ready sets index global QIDs).
        for (const TenantSpec &t : cfg_.tenants) {
            for (QueueId q = t.queueFirst;
                 q < t.queueFirst + t.queueCount; ++q) {
                qwaitUnits_[clusterOf(q)]->readySet().setWeight(
                    q, t.weight);
            }
        }
        if (faults_ && (cfg_.fault.dropSnoopRate > 0.0 ||
                        cfg_.fault.delaySnoopRate > 0.0)) {
            mem_->setSnoopInterposer(
                [this](Addr line, CoreId writer, mem::Snooper *target) {
                    return interposeSnoop(line, writer, target);
                });
        }
    }

    // Create cores, assign queue subsets cluster by cluster.
    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        const unsigned c = i / coresPerCluster;
        coreCluster_[i] = c;
        const QueueId lo = c * queuesPerCluster;
        const QueueId hi = c + 1 == clusters ? cfg_.numQueues
                                             : lo + queuesPerCluster;
        std::vector<QueueId> subset;
        subset.reserve(hi - lo);
        for (QueueId q = lo; q < hi; ++q)
            subset.push_back(q);

        std::unique_ptr<DataPlaneCore> core;
        if (cfg_.plane == PlaneKind::Spinning) {
            auto sc = std::make_unique<SpinningCore>(
                i, eq_, *mem_, queues_, *workload_, cfg_.timing,
                cfg_.jitter, cfg_.seed + i, coresPerCluster > 1);
            sc->setBacklogCounter(&clusterBacklogs_[c]);
            core = std::move(sc);
        } else if (cfg_.plane == PlaneKind::InterruptDriven) {
            auto ic = std::make_unique<InterruptCore>(
                i, eq_, *mem_, queues_, *workload_, cfg_.timing,
                cfg_.jitter, cfg_.seed + i,
                usToTicks(cfg_.interruptUs));
            ic->setBacklogCounter(&clusterBacklogs_[c]);
            core = std::move(ic);
        } else {
            core::QwaitUnit &unit = *qwaitUnits_[c];
            const Tick wake = cfg_.power.c1WakeLatency;
            std::unique_ptr<HyperPlaneCore> hpc;
            if (cfg_.plane == PlaneKind::HyperPlane) {
                hpc = std::make_unique<HyperPlaneCore>(
                    i, eq_, *mem_, queues_, *workload_, cfg_.timing,
                    cfg_.jitter, cfg_.seed + i, unit,
                    cfg_.powerOptimized, wake, cfg_.batchSize);
            } else {
                hpc = std::make_unique<SwReadySetCore>(
                    i, eq_, *mem_, queues_, *workload_, cfg_.timing,
                    cfg_.jitter, cfg_.seed + i, unit,
                    cfg_.powerOptimized, wake, cfg_.batchSize);
            }
            hpc->setInOrder(cfg_.inOrderQueues);
            hpc->setBackgroundTask(cfg_.backgroundQuantum);
            if (fallbacks_[c]) {
                hpc->setFallback(fallbacks_[c].get(),
                                 cfg_.recovery.fallbackPollPeriod);
            }
            core = std::move(hpc);
        }
        core->setTracer(tracer_.get());
        if (auto *hpc = dynamic_cast<HyperPlaneCore *>(core.get()))
            hpc->setBreakdown(breakdown_.get());
        core->assignQueues(std::move(subset));
        core->setCompletionHook(
            [this](const queueing::WorkItem &item, Tick when) {
                onCompletion(item, when);
            });
        cores_.push_back(std::move(core));
    }

    if (hyper) {
        // NUMA-style work stealing: every core may fall through to the
        // other clusters' ready sets when its own is idle.
        if (cfg_.workStealing && clusters > 1) {
            for (unsigned i = 0; i < cfg_.numCores; ++i) {
                std::vector<core::QwaitUnit *> targets;
                for (unsigned c = 0; c < clusters; ++c) {
                    if (c != coreCluster_[i])
                        targets.push_back(qwaitUnits_[c].get());
                }
                static_cast<HyperPlaneCore *>(cores_[i].get())
                    ->setStealTargets(std::move(targets),
                                      cfg_.stealExtraCycles);
            }
        }
        // Wake one halted core of the cluster per ready-queue arrival;
        // with stealing enabled, fall back to any halted core.  The
        // callback is the injection point for wake suppression; the
        // watchdog's re-fire path bypasses it via deliverWake().
        for (unsigned c = 0; c < clusters; ++c) {
            qwaitUnits_[c]->setWakeCallback([this, c] {
                if (faults_ && faults_->rollSuppressWake())
                    return;
                deliverWake(c);
            });
        }
        // Recovery machinery: the watchdog owns the periodic sweep and
        // the promotion retries for demoted queues.
        if (cfg_.recovery.enabled()) {
            std::vector<fault::WatchdogCluster> wclusters;
            for (unsigned c = 0; c < clusters; ++c) {
                fault::WatchdogCluster wc;
                wc.unit = qwaitUnits_[c].get();
                wc.fallback = fallbacks_[c].get();
                const QueueId lo = c * queuesPerCluster;
                const QueueId hi = c + 1 == clusters
                    ? cfg_.numQueues
                    : lo + queuesPerCluster;
                for (QueueId q = lo; q < hi; ++q)
                    wc.qids.push_back(q);
                wc.deliverWake = [this, c] { return deliverWake(c); };
                wclusters.push_back(std::move(wc));
            }
            watchdog_ = std::make_unique<fault::Watchdog>(
                eq_, queues_, std::move(wclusters), faults_.get(),
                cfg_.recovery);
            watchdog_->setTracer(tracer_.get());
            watchdog_->start();
        }
        // Free-running injectors (spurious activations need a unit).
        if (faults_ && cfg_.fault.spuriousWakesPerSec > 0.0)
            scheduleSpuriousWake();
    }
    // Doorbell storms are tenant behaviour: they hit every plane kind.
    if (faults_ && cfg_.fault.stormRatePerSec > 0.0)
        scheduleStormBurst();

    // Traffic source.
    traffic::SourceConfig scfg;
    scfg.totalRatePerSec = cfg_.offeredRatePerSec;
    scfg.payloadBytes = cfg_.payloadBytes != 0
        ? cfg_.payloadBytes
        : workload_->defaultPayloadBytes();
    scfg.maxQueueDepth = cfg_.maxQueueDepth;
    scfg.seed = cfg_.seed ^ 0x7ea99ULL;
    source_ = std::make_unique<traffic::PoissonSource>(
        eq_, queues_, mem_.get(), scfg, weights_);
    if (cfg_.modelTenants) {
        tenants_ = std::make_unique<TenantModel>(cfg_.tenant,
                                                 cfg_.seed ^ 0x7e9aULL);
    }
    source_->setArrivalHook(
        [this](QueueId qid, const queueing::WorkItem &item) {
            onArrival(qid, item);
        });

    registerStats();
    if (cfg_.trace.sampleEveryUs > 0.0) {
        sampler_ = std::make_unique<trace::RegistrySampler>(
            eq_, registry_, usToTicks(cfg_.trace.sampleEveryUs));
    }
}

void
SdpSystem::bindQueue(core::QwaitUnit &unit, unsigned cluster, QueueId qid)
{
    // Algorithm 1's QWAIT-ADD at the queue's fixed AddressMap doorbell.
    // The insert is deterministic, so a retry would hit the same
    // conflict: a table that cannot hold the queue needs demotion.
    if (unit.qwaitAdd(qid, queues_[qid].doorbellAddr()) ==
        core::AddResult::Ok) {
        return;
    }
    if (cfg_.recovery.gracefulDegradation && fallbacks_[cluster]) {
        fallbacks_[cluster]->add(qid);
        return;
    }
    hp_fatal("QWAIT-ADD failed for qid %u (monitoring set full or "
             "conflicted; enable recovery.gracefulDegradation)",
             qid);
}

bool
SdpSystem::deliverWake(unsigned cluster)
{
    const unsigned coresPerCluster = cfg_.numCores / numClusters();
    const unsigned base = cluster * coresPerCluster;
    for (unsigned k = 0; k < coresPerCluster; ++k) {
        auto *hpc =
            static_cast<HyperPlaneCore *>(cores_[base + k].get());
        if (hpc->halted()) {
            hpc->wake();
            return true;
        }
    }
    if (cfg_.workStealing) {
        for (auto &corePtr : cores_) {
            auto *hpc = static_cast<HyperPlaneCore *>(corePtr.get());
            if (hpc->halted()) {
                hpc->wake();
                return true;
            }
        }
    }
    return false;
}

core::QwaitUnit *
SdpSystem::unitForSnooper(mem::Snooper *s)
{
    for (auto &u : qwaitUnits_) {
        if (u.get() == s)
            return u.get();
    }
    return nullptr;
}

void
SdpSystem::deliverSnoop(mem::Snooper *target, Addr line, CoreId writer)
{
    // A snoop reaching an armed entry of a lost queue closes the
    // episode: the activation it triggers is the self-recovery.
    if (core::QwaitUnit *unit = unitForSnooper(target)) {
        const core::MonitorEntry *e = unit->monitoringSet().find(line);
        if (e != nullptr && e->armed && faults_ &&
            faults_->isLost(e->qid)) {
            faults_->recordSelfRecovery(e->qid);
        }
    }
    target->onWriteTransaction(line, writer);
}

bool
SdpSystem::interposeSnoop(Addr line, CoreId writer, mem::Snooper *target)
{
    core::QwaitUnit *unit = unitForSnooper(target);
    if (unit == nullptr)
        return false; // unknown snooper: deliver normally

    if (faults_->rollDropSnoop()) {
        // A drop only loses work if it would have activated a queue
        // that actually has items: armed entry, not ready, nonempty
        // doorbell (the storm tenant's empty writes carry no work).
        const core::MonitorEntry *e = unit->monitoringSet().find(line);
        if (e != nullptr && e->armed &&
            !unit->readySet().isReady(e->qid) &&
            !queues_[e->qid].doorbell().empty()) {
            faults_->recordLost(e->qid);
        } else {
            faults_->harmlessDrops.inc();
        }
        if (tracer_) {
            tracer_->stamp(0, trace::Stage::SnoopDropped,
                           trace::Phase::Instant, trace::trackDevice,
                           eq_.now(),
                           e != nullptr ? e->qid : invalidQueueId, line);
        }
        return true; // swallowed
    }
    if (const auto delay = faults_->rollDelaySnoop()) {
        if (tracer_) {
            tracer_->stamp(0, trace::Stage::SnoopDelayed,
                           trace::Phase::Instant, trace::trackDevice,
                           eq_.now(), invalidQueueId, line);
        }
        eq_.scheduleIn(*delay, [this, line, writer, target] {
            deliverSnoop(target, line, writer);
        });
        return true; // in flight
    }
    deliverSnoop(target, line, writer);
    return true;
}

void
SdpSystem::scheduleSpuriousWake()
{
    const double gapUs = faults_->nextSpuriousGapUs();
    eq_.scheduleIn(std::max<Tick>(1, usToTicks(gapUs)), [this] {
        const auto qid = static_cast<QueueId>(
            faults_->pickSpuriousTarget(cfg_.numQueues));
        qwaitUnits_[clusterOf(qid)]->injectSpuriousActivation(qid);
        faults_->spuriousInjected.inc();
        scheduleSpuriousWake();
    });
}

void
SdpSystem::scheduleStormBurst()
{
    const double gapUs = faults_->nextStormGapUs();
    eq_.scheduleIn(std::max<Tick>(1, usToTicks(gapUs)), [this] {
        const QueueId victim = cfg_.fault.stormQueue != invalidQueueId
            ? cfg_.fault.stormQueue
            : static_cast<QueueId>(
                  faults_->pickStormTarget(cfg_.numQueues));
        // Doorbell writes with no enqueued work: each one raises a
        // write transaction (and a spurious activation if the entry is
        // armed) that QWAIT-VERIFY then filters.
        for (unsigned i = 0; i < std::max(1u, cfg_.fault.stormBurst);
             ++i) {
            faults_->stormWrites.inc();
            mem_->deviceWrite(queues_[victim].doorbellAddr());
        }
        scheduleStormBurst();
    });
}

fault::FallbackSet *
SdpSystem::fallbackSet(unsigned cluster)
{
    if (cluster >= fallbacks_.size())
        return nullptr;
    return fallbacks_[cluster].get();
}

std::uint64_t
SdpSystem::stuckQueues() const
{
    std::uint64_t stuck = 0;
    for (QueueId qid = 0; qid < cfg_.numQueues; ++qid) {
        if (queues_[qid].depth() == 0)
            continue;
        const unsigned c = clusterOf(qid);
        if (c < fallbacks_.size() && fallbacks_[c] &&
            fallbacks_[c]->contains(qid)) {
            continue; // software-polled: progress guaranteed
        }
        if (c >= qwaitUnits_.size())
            continue; // polling/interrupt planes cannot lose snoops
        const core::QwaitUnit &unit = *qwaitUnits_[c];
        const auto db = unit.doorbellOf(qid);
        if (!db) {
            ++stuck; // nonempty but nobody is watching it
            continue;
        }
        if (unit.monitoringSet().isArmed(*db) &&
            !unit.readySet().isReady(qid)) {
            ++stuck; // armed + nonempty + not ready: the lost state
        }
    }
    return stuck;
}

void
SdpSystem::onArrival(QueueId qid, const queueing::WorkItem &item)
{
    // The hook runs after the enqueue but before the doorbell write's
    // snoop, so depth() == 1 identifies the empty->non-empty transition
    // that carries a fresh notification.
    if (breakdown_ && queues_[qid].depth() == 1)
        breakdown_->onDoorbell(qid, item.seq, item.arrivalTick);
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::DoorbellWrite, trace::Phase::Instant,
                       trace::trackDevice, item.arrivalTick, qid, item.seq);
    }
    const unsigned c = clusterOf(qid);
    ++clusterBacklogs_[c];
    if (cfg_.plane == PlaneKind::Spinning) {
        // Wake any idle-spinning cores of this cluster so they resume
        // real polling at the arrival instant.
        for (unsigned i = 0; i < cores_.size(); ++i) {
            if (coreCluster_[i] == c) {
                static_cast<SpinningCore *>(cores_[i].get())
                    ->wakeSpin();
            }
        }
    } else if (cfg_.plane == PlaneKind::InterruptDriven) {
        // Deliver the interrupt to an idle core of this cluster.
        for (unsigned i = 0; i < cores_.size(); ++i) {
            if (coreCluster_[i] == c) {
                auto *ic =
                    static_cast<InterruptCore *>(cores_[i].get());
                if (ic->halted()) {
                    ic->raiseInterrupt();
                    break;
                }
            }
        }
    }
}

void
SdpSystem::onCompletion(const queueing::WorkItem &item, Tick when)
{
    if (cfg_.plane == PlaneKind::HyperPlane ||
        cfg_.plane == PlaneKind::HyperPlaneSwReady) {
        // HyperPlane planes do not poll; keep the shared backlog
        // counters balanced anyway for introspection.
        auto &b = clusterBacklogs_[clusterOf(item.qid)];
        if (b > 0)
            --b;
    }
    if (breakdown_)
        breakdown_->onCompletion(item.qid, item.seq, when);
    if (!measuring_ || when < measureStart_)
        return;
    ++completions_;
    latency_.record(ticksToUs(when - item.arrivalTick));
    if (tenants_)
        tenants_->deliver(item, when);
}

SdpResults
SdpSystem::run()
{
    for (auto &core : cores_)
        core->start();
    source_->start();
    if (sampler_)
        sampler_->start();

    const Tick warmupEnd = eq_.now() + usToTicks(cfg_.warmupUs);
    eq_.run(warmupEnd);

    // Measurement boundary: clear every statistic.
    measuring_ = true;
    measureStart_ = warmupEnd;
    completions_ = 0;
    latency_.clear();
    for (auto &core : cores_)
        core->resetStats();
    if (tenants_)
        tenants_->resetStats();
    if (breakdown_)
        breakdown_->clear();
    const std::uint64_t genAtStart = source_->generated();
    const std::uint64_t dropAtStart = source_->dropped();

    const Tick end = warmupEnd + usToTicks(cfg_.measureUs);
    eq_.run(end);

    // Close halt/idle intervals still open at the end of the window.
    for (auto &core : cores_)
        core->finalize(end);

    SdpResults r = digest(end - measureStart_);
    r.generated = source_->generated() - genAtStart;
    r.dropped = source_->dropped() - dropAtStart;

    for (auto &core : cores_)
        core->stop();
    source_->stop();
    if (sampler_)
        sampler_->stop();
    return r;
}

SdpResults
SdpSystem::digest(Tick windowTicks)
{
    SdpResults r;
    const double windowSec = ticksToSeconds(windowTicks);

    r.completions = completions_;
    r.throughputMtps =
        static_cast<double>(completions_) / windowSec / 1e6;
    if (latency_.count() > 0) {
        r.avgLatencyUs = latency_.mean();
        r.p50LatencyUs = latency_.quantile(0.50);
        r.p99LatencyUs = latency_.quantile(0.99);
        r.p999LatencyUs = latency_.quantile(0.999);
        r.maxLatencyUs = latency_.max();
    }

    power::CorePowerModel powerModel(cfg_.power);
    double totalInstr = 0, usefulInstr = 0, uselessInstr = 0;
    double activeTicks = 0, powerSum = 0;
    std::uint64_t polls = 0, tasks = 0;
    for (const auto &core : cores_) {
        const CoreActivity &a = core->activity();
        totalInstr +=
            static_cast<double>(a.usefulInstr + a.uselessInstr);
        usefulInstr += static_cast<double>(a.usefulInstr);
        uselessInstr += static_cast<double>(a.uselessInstr);
        activeTicks += static_cast<double>(a.activeTicks);
        polls += a.polls;
        tasks += a.tasks;

        const double coreActiveIpc = a.activeTicks > 0
            ? static_cast<double>(a.usefulInstr + a.uselessInstr) /
                static_cast<double>(a.activeTicks)
            : 0.0;
        // Unaccounted window time (core idle before its chunk closed)
        // is treated as halted-in-C0 for spinning planes too; in
        // practice spinning cores are active for the full window.
        const auto accounted = static_cast<double>(
            a.activeTicks + a.c0HaltTicks + a.c1HaltTicks);
        const double slack =
            std::max(0.0, static_cast<double>(windowTicks) - accounted);
        double energy =
            powerModel.activePowerW(coreActiveIpc) *
                ticksToSeconds(a.activeTicks) +
            powerModel.haltPowerW(false) *
                (ticksToSeconds(a.c0HaltTicks) + slack / (clockGHz * 1e9)) +
            powerModel.haltPowerW(true) * ticksToSeconds(a.c1HaltTicks);
        powerSum += energy / windowSec;
    }
    const double coreWindows =
        static_cast<double>(windowTicks) * cfg_.numCores;
    r.ipc = totalInstr / coreWindows;
    r.usefulIpc = usefulInstr / coreWindows;
    r.uselessIpc = uselessInstr / coreWindows;
    r.activeFraction = std::min(1.0, activeTicks / coreWindows);
    r.activeIpc = activeTicks > 0 ? totalInstr / activeTicks : 0.0;
    r.avgCorePowerW = powerSum / cfg_.numCores;
    r.avgPollsPerTask =
        tasks > 0 ? static_cast<double>(polls) / tasks : 0.0;

    SmtCoRunner smt(cfg_.smt);
    r.coRunnerIpc = smt.coRunnerIpc(r.activeFraction, r.activeIpc);

    for (const auto &unit : qwaitUnits_)
        r.spuriousWakeups += unit->spuriousWakeups.value();
    double bgInstr = 0;
    for (const auto &core : cores_) {
        if (auto *hpc = dynamic_cast<HyperPlaneCore *>(core.get()))
            r.stolenGrants += hpc->stolen();
        if (auto *ic = dynamic_cast<InterruptCore *>(core.get()))
            r.interrupts += ic->interruptsTaken();
        bgInstr += static_cast<double>(core->activity().backgroundInstr);
    }
    r.backgroundIpc = bgInstr / coreWindows;
    if (tenants_ && tenants_->latency().count() > 0) {
        r.e2eAvgLatencyUs = tenants_->latency().mean();
        r.e2eP99LatencyUs = tenants_->latency().quantile(0.99);
    }

    if (faults_) {
        r.snoopsDropped = faults_->snoopsDropped.value();
        r.snoopsDelayed = faults_->snoopsDelayed.value();
        r.lostInjected = faults_->lostInjected.value();
        r.watchdogRecoveries = faults_->watchdogRecovered.value();
        r.selfRecoveries = faults_->selfRecovered.value();
        r.lostOutstanding = faults_->outstandingLost();
        r.wakesSuppressed = faults_->wakesSuppressed.value();
        r.spuriousInjected = faults_->spuriousInjected.value();
        r.stormWrites = faults_->stormWrites.value();
    }
    if (watchdog_) {
        r.watchdogSweeps = watchdog_->sweeps.value();
        r.wakeRefires = watchdog_->wakeRefires.value();
        if (!faults_)
            r.watchdogRecoveries = watchdog_->recoveries.value();
    }
    for (const auto &fb : fallbacks_) {
        if (!fb)
            continue;
        r.demotions += fb->demotions.value();
        r.promotions += fb->promotions.value();
        r.fallbackTasks += fb->tasksServed.value();
    }
    if (breakdown_) {
        r.breakdownSamples = breakdown_->samples();
        r.breakdownIncomplete = breakdown_->incomplete();
        if (breakdown_->endToEndUs().count() > 0) {
            r.avgDoorbellToSnoopUs =
                breakdown_->doorbellToSnoopUs().mean();
            r.avgSnoopToReadyUs = breakdown_->snoopToReadyUs().mean();
            r.avgReadyToGrantUs = breakdown_->readyToGrantUs().mean();
            r.avgGrantToCompletionUs =
                breakdown_->grantToCompletionUs().mean();
            r.breakdownE2eAvgUs = breakdown_->endToEndUs().mean();
            r.breakdownE2eP99Us =
                breakdown_->endToEndUs().quantile(0.99);
        }
    }
    if (tracer_) {
        r.traceEvents = tracer_->recorded();
        r.traceDropped = tracer_->dropped();
    }
    r.stuckQueues = stuckQueues();
    return r;
}

void
SdpSystem::registerStats()
{
    stats::Registry &reg = registry_;
    reg.addGroup("mem",
                 {mem_->l1Hits, mem_->llcHits, mem_->remoteForwards,
                  mem_->memAccesses, mem_->invalidations,
                  mem_->writeTransactions, mem_->snoopHits,
                  mem_->dirLookups, mem_->dirHits});
    reg.addScalar("mem.directory_lines", [this] {
        return static_cast<double>(mem_->directoryLines());
    });
    reg.addGroup("source", {source_->generated_, source_->dropped_});
    for (unsigned c = 0; c < qwaitUnits_.size(); ++c) {
        const auto &u = *qwaitUnits_[c];
        const std::string p = "hyperplane" + std::to_string(c);
        reg.addGroup(p, {u.qwaitCalls, u.qwaitBlocked,
                         u.spuriousWakeups});
        reg.addGroup(p + ".monitoring",
                     {u.monitoringSet().inserts,
                      u.monitoringSet().insertConflicts,
                      u.monitoringSet().snoops,
                      u.monitoringSet().snoopMatches});
        reg.addGroup(p + ".ready", {u.readySet().activations,
                                    u.readySet().grants});
        reg.addScalar(p + ".monitoring.occupancy", [&u] {
            return static_cast<double>(u.monitoringSet().occupancy());
        });
    }
    if (faults_) {
        reg.addGroup("fault",
                     {faults_->snoopsDropped, faults_->harmlessDrops,
                      faults_->snoopsDelayed, faults_->wakesSuppressed,
                      faults_->spuriousInjected,
                      faults_->stormWrites, faults_->lostInjected,
                      faults_->watchdogRecovered,
                      faults_->selfRecovered});
        reg.addScalar("fault.lost_outstanding", [this] {
            return static_cast<double>(faults_->outstandingLost());
        });
    }
    if (watchdog_) {
        reg.addGroup("watchdog",
                     {watchdog_->sweeps, watchdog_->recoveries,
                      watchdog_->earlyRecoveries, watchdog_->wakeRefires,
                      watchdog_->promotions});
    }
    for (unsigned c = 0; c < fallbacks_.size(); ++c) {
        if (!fallbacks_[c])
            continue;
        const auto &fb = *fallbacks_[c];
        reg.addGroup("fallback" + std::to_string(c),
                     {fb.demotions, fb.promotions, fb.polls,
                      fb.tasksServed});
    }
    for (unsigned i = 0; i < cores_.size(); ++i) {
        const CoreActivity &a = cores_[i]->activity();
        const std::string p = "core" + std::to_string(i);
        reg.addScalar(p + ".tasks",
                      [&a] { return static_cast<double>(a.tasks); });
        reg.addScalar(p + ".polls",
                      [&a] { return static_cast<double>(a.polls); });
        reg.addScalar(p + ".empty_polls", [&a] {
            return static_cast<double>(a.emptyPolls);
        });
        reg.addScalar(p + ".useful_instr", [&a] {
            return static_cast<double>(a.usefulInstr);
        });
        reg.addScalar(p + ".useless_instr", [&a] {
            return static_cast<double>(a.uselessInstr);
        });
        reg.addScalar(p + ".active_ticks", [&a] {
            return static_cast<double>(a.activeTicks);
        });
        reg.addScalar(p + ".halt_ticks", [&a] {
            return static_cast<double>(a.c0HaltTicks + a.c1HaltTicks);
        });
        reg.addScalar(p + ".wakeups", [&a] {
            return static_cast<double>(a.wakeups);
        });
    }
    if (tracer_) {
        reg.addScalar("trace.events", [this] {
            return static_cast<double>(tracer_->recorded());
        });
        reg.addScalar("trace.dropped", [this] {
            return static_cast<double>(tracer_->dropped());
        });
    }
    if (breakdown_) {
        reg.addScalar("trace.breakdown_samples", [this] {
            return static_cast<double>(breakdown_->samples());
        });
        reg.addScalar("trace.breakdown_incomplete", [this] {
            return static_cast<double>(breakdown_->incomplete());
        });
        reg.addScalar("trace.breakdown_open", [this] {
            return static_cast<double>(breakdown_->open());
        });
    }
    reg.addScalar("system.completions", [this] {
        return static_cast<double>(completions_);
    });
}

void
SdpSystem::dumpStats(std::ostream &os) const
{
    os << registry_.report();
}

void
SdpSystem::writeChromeTrace(std::ostream &os) const
{
    trace::writeChromeTrace(
        os, tracer_ ? tracer_->snapshot() : std::vector<trace::TraceEvent>{});
}

SdpResults
runSdp(const SdpConfig &cfg)
{
    SdpSystem system(cfg);
    return system.run();
}

} // namespace dp
} // namespace hyperplane
