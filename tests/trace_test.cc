/**
 * @file
 * Unit tests for the notification-path tracing subsystem: the flight
 * recorder (including concurrent wraparound), span pairing, the
 * Chrome-trace exporter, the latency breakdown joiner, the time
 * series, and end-to-end traced SdpSystem runs (breakdown stages must
 * sum to the e2e latency).
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "dp/sdp_system.hh"
#include "harness/runner.hh"
#include "json_check.hh"
#include "trace/chrome_trace.hh"
#include "trace/flight_recorder.hh"
#include "trace/latency_breakdown.hh"
#include "trace/timeseries.hh"
#include "trace/trace.hh"

namespace hyperplane {
namespace trace {
namespace {

/** One event, built directly (the exporters take plain vectors). */
TraceEvent
ev(Stage stage, Phase phase, std::uint32_t track, Tick ts,
   QueueId qid = invalidQueueId, std::uint64_t arg = 0)
{
    return {ts, arg, qid, track, stage, phase};
}

TEST(FlightRecorder, SamplingIsDeterministicModulus)
{
    FlightRecorder fr(1, 16, 64);
    EXPECT_TRUE(fr.enabled());
    EXPECT_TRUE(fr.sampled(0));
    EXPECT_TRUE(fr.sampled(64));
    EXPECT_TRUE(fr.sampled(128));
    EXPECT_FALSE(fr.sampled(1));
    EXPECT_FALSE(fr.sampled(63));

    // A period that is not a power of two rounds down to one.
    FlightRecorder odd(1, 16, 100);
    EXPECT_EQ(odd.sampleEvery(), 64u);
    EXPECT_TRUE(odd.sampled(64));
    EXPECT_FALSE(odd.sampled(100));

    // Period 0 disables the recorder: nothing samples, nothing records.
    FlightRecorder off(1, 16, 0);
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.sampled(0));
    off.stamp(0, Stage::Service, Phase::Begin, 0, 1);
    off.stamp(0, Stage::DoorbellWrite, Phase::Instant, 0, 2);
    EXPECT_EQ(off.recorded(), 0u);
    EXPECT_EQ(off.dropped(), 0u);
    EXPECT_TRUE(off.snapshot().empty());
}

TEST(FlightRecorder, WraparoundKeepsNewestSorted)
{
    // Capacity inputs: 1 (0 counts as 1) up to one that never wraps.
    // recorded counts every stamp; the ring keeps the newest
    // min(recorded, capacity) and dropped() counts the rest.
    constexpr std::uint64_t n = 20;
    for (const std::size_t cap : {0, 1, 4, 8, 32}) {
        SCOPED_TRACE(cap);
        FlightRecorder fr(1, cap, 1);
        const std::size_t kept = std::min<std::size_t>(
            n, std::max<std::size_t>(1, cap));
        EXPECT_EQ(fr.capacity(), std::max<std::size_t>(1, cap));
        for (std::uint64_t i = 0; i < n; ++i)
            fr.stamp(0, Stage::Completion, Phase::Instant, 3,
                     static_cast<Tick>(i * 10), 7, i);
        EXPECT_EQ(fr.recorded(), n);
        EXPECT_EQ(fr.dropped(), n - kept);
        const auto snap = fr.snapshot();
        ASSERT_EQ(snap.size(), kept);
        // Only the newest survive, sorted by timestamp.
        for (std::size_t i = 0; i < snap.size(); ++i) {
            EXPECT_EQ(snap[i].arg, n - kept + i);
            EXPECT_EQ(snap[i].ts, static_cast<Tick>((n - kept + i) * 10));
            EXPECT_EQ(snap[i].track, 3u);
            EXPECT_EQ(snap[i].qid, 7u);
        }
    }
}

TEST(FlightRecorder, ConcurrentStampAndSnapshotStayCoherent)
{
    // Single-writer-per-shard stamping races against a snapshotting
    // reader over tiny rings (capacity inputs 1 and 16).  Snapshots
    // must only ever contain fully-written events (the per-slot
    // seqlock discards mid-write slots); under TSan this is also the
    // data-race check.
    constexpr unsigned shards = 3;
    constexpr std::uint64_t perShard = 20000;
    for (const std::size_t cap : {1, 16}) {
        SCOPED_TRACE(cap);
        FlightRecorder fr(shards, cap, 1);
        std::atomic<bool> run{true};
        std::thread reader([&] {
            while (run.load(std::memory_order_relaxed)) {
                for (const auto &e : fr.snapshot()) {
                    // Writers encode track == shard and arg == ts, so
                    // any torn slot shows up as a mismatched pair.
                    ASSERT_EQ(e.arg, static_cast<std::uint64_t>(e.ts));
                    ASSERT_LT(e.track, shards);
                }
            }
        });
        std::vector<std::thread> writers;
        for (unsigned s = 0; s < shards; ++s) {
            writers.emplace_back([&fr, s] {
                for (std::uint64_t i = 1; i <= perShard; ++i)
                    fr.stamp(s, Stage::Service, Phase::Instant, s,
                             static_cast<Tick>(i), invalidQueueId, i);
            });
        }
        for (auto &w : writers)
            w.join();
        run.store(false);
        reader.join();

        // Every stamp is accounted: recorded == kept + dropped.
        EXPECT_EQ(fr.recorded(), shards * perShard);
        EXPECT_EQ(fr.dropped(), shards * (perShard - cap));
        const auto snap = fr.snapshot();
        ASSERT_EQ(snap.size(), shards * cap); // nothing mid-write now
        // Merged sort order, and each writer's newest events survive
        // in order.
        std::array<std::uint64_t, shards> last{};
        for (std::size_t i = 0; i < snap.size(); ++i) {
            if (i > 0) {
                EXPECT_GE(snap[i].ts, snap[i - 1].ts);
            }
            EXPECT_GT(snap[i].arg, perShard - cap);
            EXPECT_GT(snap[i].arg, last[snap[i].track]);
            last[snap[i].track] = snap[i].arg;
        }
    }
}

TEST(SpanPairing, NestedSpansPerTrackPass)
{
    const std::vector<TraceEvent> events = {
        ev(Stage::Service, Phase::Begin, 0, 10),
        ev(Stage::Halt, Phase::Begin, 1, 11), // other track interleaves
        ev(Stage::Completion, Phase::Instant, 0, 12),
        ev(Stage::Service, Phase::End, 0, 13),
        ev(Stage::Halt, Phase::End, 1, 14),
    };
    const auto check = checkSpanPairing(events);
    EXPECT_TRUE(check.ok) << check.error;
}

TEST(SpanPairing, UnmatchedEndFails)
{
    const auto check =
        checkSpanPairing({ev(Stage::Service, Phase::End, 0, 10)});
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.error.find("unmatched End"), std::string::npos);
}

TEST(SpanPairing, MismatchedStageFails)
{
    EXPECT_FALSE(checkSpanPairing({ev(Stage::Service, Phase::Begin, 0, 10),
                                   ev(Stage::Halt, Phase::End, 0, 11)})
                     .ok);
}

TEST(SpanPairing, UnclosedBeginFails)
{
    const auto check =
        checkSpanPairing({ev(Stage::Halt, Phase::Begin, 2, 10)});
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.error.find("unclosed Begin"), std::string::npos);
}

TEST(TrackNames, PseudoTracksAreNamed)
{
    EXPECT_EQ(trackName(0), "core0");
    EXPECT_EQ(trackName(3), "core3");
    EXPECT_EQ(trackName(trackHardwareBase), "hw0");
    EXPECT_EQ(trackName(trackHardwareBase + 2), "hw2");
    EXPECT_EQ(trackName(trackDevice), "device");
    EXPECT_EQ(trackName(trackWatchdog), "watchdog");
}

TEST(ChromeTrace, ExportIsWellFormedJson)
{
    const std::string json = chromeTraceJson({
        ev(Stage::DoorbellWrite, Phase::Instant, trackDevice, 100, 7, 1),
        ev(Stage::Service, Phase::Begin, 0, 200, 7),
        ev(Stage::Completion, Phase::Instant, 0, 250, 7, 1),
        ev(Stage::Service, Phase::End, 0, 300, 7),
    });
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(json)) << json;
    // Stage names, phases, and thread_name metadata must appear.
    EXPECT_NE(json.find("\"doorbell_write\""), std::string::npos);
    EXPECT_NE(json.find("\"service\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"device\""), std::string::npos);
    EXPECT_NE(json.find("\"core0\""), std::string::npos);
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST(ChromeTrace, EmptyBufferStillValid)
{
    const std::string json = chromeTraceJson({});
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(json)) << json;
}

TEST(LatencyBreakdown, StagesTelescopeToEndToEnd)
{
    LatencyBreakdown b;
    b.onDoorbell(3, 1, 100);
    b.onActivate(3, 120, 5); // snoop back-dated to tick 115
    b.onGrant(3, 140);
    b.onCompletion(3, 1, 200);
    ASSERT_EQ(b.samples(), 1u);
    EXPECT_EQ(b.incomplete(), 0u);
    EXPECT_EQ(b.open(), 0u);
    EXPECT_NEAR(b.doorbellToSnoopUs().mean(), ticksToUs(15), 1e-12);
    EXPECT_NEAR(b.snoopToReadyUs().mean(), ticksToUs(5), 1e-12);
    EXPECT_NEAR(b.readyToGrantUs().mean(), ticksToUs(20), 1e-12);
    EXPECT_NEAR(b.grantToCompletionUs().mean(), ticksToUs(60), 1e-12);
    const double sum = b.doorbellToSnoopUs().mean() +
                       b.snoopToReadyUs().mean() +
                       b.readyToGrantUs().mean() +
                       b.grantToCompletionUs().mean();
    EXPECT_NEAR(sum, b.endToEndUs().mean(), 1e-12);
    EXPECT_NEAR(b.endToEndUs().mean(), ticksToUs(100), 1e-12);
}

TEST(LatencyBreakdown, SnoopBackdateClampsToDoorbell)
{
    LatencyBreakdown b;
    b.onDoorbell(1, 1, 100);
    b.onActivate(1, 102, 50); // lookup longer than doorbell->activate
    b.onGrant(1, 110);
    b.onCompletion(1, 1, 120);
    ASSERT_EQ(b.samples(), 1u);
    EXPECT_EQ(b.doorbellToSnoopUs().mean(), 0.0);
    EXPECT_NEAR(b.snoopToReadyUs().mean(), ticksToUs(2), 1e-12);
}

TEST(LatencyBreakdown, BackloggedArrivalDoesNotOpenEpisode)
{
    LatencyBreakdown b;
    b.onDoorbell(2, 1, 100);
    b.onDoorbell(2, 2, 110); // queue already non-empty: ignored
    b.onActivate(2, 105);
    b.onGrant(2, 120);
    b.onCompletion(2, 2, 130); // seq mismatch: batch item, no close
    EXPECT_EQ(b.samples(), 0u);
    EXPECT_EQ(b.open(), 1u);
    b.onCompletion(2, 1, 140);
    EXPECT_EQ(b.samples(), 1u);
    EXPECT_EQ(b.open(), 0u);
}

TEST(LatencyBreakdown, UngrantedEpisodeClosesIncomplete)
{
    LatencyBreakdown b;
    b.onDoorbell(4, 9, 100);
    b.onActivate(4, 110);
    b.onCompletion(4, 9, 150); // served without a grant (fallback)
    EXPECT_EQ(b.samples(), 0u);
    EXPECT_EQ(b.incomplete(), 1u);
}

TEST(LatencyBreakdown, ClearDropsOpenEpisodes)
{
    LatencyBreakdown b;
    b.onDoorbell(5, 1, 100);
    b.clear();
    EXPECT_EQ(b.open(), 0u);
    b.onCompletion(5, 1, 200); // episode gone: no effect
    EXPECT_EQ(b.samples(), 0u);
    EXPECT_EQ(b.incomplete(), 0u);
}

TEST(TimeSeries, RowsAndCsv)
{
    TimeSeries ts;
    ts.setColumns({"a", "b"});
    ts.appendRow(usToTicks(1.0), {1.0, 2.0});
    ts.appendRow(usToTicks(2.0), {3.0, 4.5});
    ASSERT_EQ(ts.rows(), 2u);
    EXPECT_EQ(ts.rowValues(1)[1], 4.5);

    std::ostringstream csv;
    ts.writeCsv(csv);
    const std::string text = csv.str();
    EXPECT_EQ(text.find("tick,time_us,a,b"), 0u);
    // Header + two data rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);

    std::ostringstream json;
    ts.writeJson(json);
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(json.str()))
        << json.str();
}

// ---------------------------------------------------------------------
// End-to-end: traced SdpSystem runs.
// ---------------------------------------------------------------------

dp::SdpConfig
tracedZeroLoadConfig()
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.numCores = 1;
    cfg.numQueues = 32;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::SQ;
    cfg.jitter = dp::ServiceJitter::None;
    cfg.seed = 77;
    cfg = harness::zeroLoadConfig(cfg, 200);
    cfg.trace.enable = true;
    return cfg;
}

TEST(TracedRun, BreakdownStagesSumToEndToEnd)
{
    dp::SdpSystem sys(tracedZeroLoadConfig());
    const auto r = sys.run();
    ASSERT_GT(r.breakdownSamples, 0u);
    EXPECT_GT(r.traceEvents, 0u);
    const double sum = r.avgDoorbellToSnoopUs + r.avgSnoopToReadyUs +
                       r.avgReadyToGrantUs + r.avgGrantToCompletionUs;
    // Stage boundaries telescope: the sum reconstructs e2e exactly
    // (one-tick tolerance for the clamped snoop back-date).
    EXPECT_NEAR(sum, r.breakdownE2eAvgUs, ticksToUs(1) + 1e-9);
    // At zero load the breakdown e2e matches the measured latency.
    EXPECT_NEAR(r.breakdownE2eAvgUs, r.avgLatencyUs, 0.05);
}

TEST(TracedRun, SpansPairAndExportIsValidJson)
{
    // Capacity inputs: the default ring keeps the whole run; 1 and 64
    // overflow it.  The counters must reconcile either way, and spans
    // must pair whenever nothing was evicted.
    const std::size_t defaultCap =
        tracedZeroLoadConfig().trace.bufferCapacity;
    for (const std::size_t cap :
         {std::size_t{1}, std::size_t{64}, defaultCap}) {
        SCOPED_TRACE(cap);
        auto cfg = tracedZeroLoadConfig();
        cfg.trace.bufferCapacity = cap;
        dp::SdpSystem sys(cfg);
        const auto r = sys.run();
        ASSERT_NE(sys.tracer(), nullptr);
        const auto events = sys.tracer()->snapshot();
        EXPECT_EQ(events.size(),
                  std::min<std::uint64_t>(r.traceEvents, cap));
        EXPECT_EQ(r.traceDropped, r.traceEvents - events.size());
        if (cap == defaultCap) {
            ASSERT_EQ(r.traceDropped, 0u);
        }
        if (r.traceDropped == 0) {
            const auto check = checkSpanPairing(events);
            EXPECT_TRUE(check.ok) << check.error;
        }

        std::ostringstream os;
        sys.writeChromeTrace(os);
        EXPECT_TRUE(hyperplane::testing::jsonWellFormed(os.str()));
    }
}

TEST(TracedRun, DisabledRunPaysNothing)
{
    auto cfg = tracedZeroLoadConfig();
    cfg.trace.enable = false;
    dp::SdpSystem sys(cfg);
    const auto r = sys.run();
    EXPECT_EQ(sys.tracer(), nullptr);
    EXPECT_EQ(sys.timeSeries(), nullptr);
    EXPECT_EQ(r.traceEvents, 0u);
    EXPECT_EQ(r.breakdownSamples, 0u);
    // The exporter still emits a valid (empty) document.
    std::ostringstream os;
    sys.writeChromeTrace(os);
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(os.str()));
}

TEST(TracedRun, TracingDoesNotPerturbResults)
{
    auto off = tracedZeroLoadConfig();
    off.trace.enable = false;
    const auto base = dp::runSdp(off);
    const auto traced = dp::runSdp(tracedZeroLoadConfig());
    EXPECT_EQ(traced.completions, base.completions);
    EXPECT_DOUBLE_EQ(traced.avgLatencyUs, base.avgLatencyUs);
    EXPECT_DOUBLE_EQ(traced.throughputMtps, base.throughputMtps);
}

TEST(TracedRun, RegistrySamplerLeavesTimeSeries)
{
    auto cfg = tracedZeroLoadConfig();
    cfg.trace.sampleEveryUs = cfg.measureUs / 20.0;
    dp::SdpSystem sys(cfg);
    sys.run();
    const TimeSeries *ts = sys.timeSeries();
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->rows(), 10u);
    EXPECT_FALSE(ts->columns().empty());
    // Ticks must be strictly increasing.
    for (std::size_t i = 1; i < ts->rows(); ++i)
        EXPECT_LT(ts->rowTick(i - 1), ts->rowTick(i));
    std::ostringstream json;
    ts->writeJson(json);
    EXPECT_TRUE(hyperplane::testing::jsonWellFormed(json.str()));
}

} // namespace
} // namespace trace
} // namespace hyperplane
