/**
 * @file
 * Extension benchmark: multi-tenant SLO isolation under an adversarial
 * neighbor.
 *
 * Two tenants share one real UDP server: a well-behaved victim on its
 * own queue group (higher priority, generous rate limit) and an
 * aggressor that offers several times its admitted rate.  The
 * experiment runs the victim alone first (aggressor-idle baseline) and
 * then both together, twice each, and measures whether the
 * overload-control stack — per-tenant token-bucket admission,
 * priority-ranked watermark shedding and typed rejects — keeps the
 * victim's tail latency flat while the aggressor's excess is shed, not
 * lost.  Each repeat's victim p99 is printed and exported, so the
 * baseline's own spread is visible next to the gate's verdict.
 *
 * Flags:
 *   --quick          shorter run for CI smoke
 *   --check          exit nonzero if the isolation gates fail
 *   --duration S     send-phase seconds per run
 *   --json FILE      machine-readable export (BENCH_tenant.json in CI)
 *
 * When the sandbox forbids UDP sockets the run prints a skip annotation
 * and exits 0 (with a {"skipped":true} JSON if requested).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/export.hh"
#include "server/loadgen.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/table.hh"

using namespace hyperplane;

namespace {

/** Victim p99 floor for the isolation gate: on a short CI run the
 *  baseline can be a handful of microseconds, and 2x a tiny number is
 *  not a meaningful SLO. */
constexpr double victimP99FloorUs = 150.0;

/**
 * Floor on boxes with fewer than four CPUs.  There the victim's tail
 * is dominated by the OS timeslicing it against the aggressor's *load
 * generator* threads — contention in this process, not in the server —
 * so the gate allows one scheduling quantum (~1 ms) of noise on top of
 * the baseline before calling isolation broken.
 */
constexpr double victimP99FloorConstrainedUs = 1200.0;

struct Scenario
{
    double victimRate = 6e3;
    double aggressorRate = 24e3;     ///< offered; >= 4x its admitted rate
    double aggressorLimit = 6e3;     ///< token-bucket admitted rate
    double seconds = 1.0;
};

struct ServerSnapshot
{
    std::uint64_t shedRateLimited = 0;
    std::uint64_t shedWatermark = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t victimAdmitted = 0;
    std::uint64_t victimServed = 0;
    std::uint64_t aggrAdmitted = 0;
    std::uint64_t aggrServed = 0;
    std::uint64_t aggrRateLimited = 0;
};

struct RunResult
{
    server::LoadGenReport victim;
    std::optional<server::LoadGenReport> aggressor;
    ServerSnapshot srv;
};

/** One condition: its lower-p99 repeat and every repeat's victim p99. */
struct Condition
{
    RunResult best;
    std::vector<double> victimP99Us; ///< in run order
};

/** Two tenants on disjoint queue groups: the victim (higher priority,
 *  lower queue ids — the strict-priority arbiter grants the lowest
 *  ready QID) and the aggressor. */
server::ServerConfig
tenantServerConfig(const Scenario &s)
{
    // Kept deliberately small: the bench must behave on a 1-2 CPU CI
    // box, where extra threads just add scheduler noise to the very
    // tail this experiment gates on.
    server::ServerConfig sc;
    sc.rxThreads = 1;
    sc.workers = 2;
    sc.numQueues = 8;
    sc.policy = core::ServicePolicy::WeightedRoundRobin;

    dp::TenantSpec victim;
    victim.name = "victim";
    victim.weight = 8;
    victim.priority = 1;
    victim.rateLimitPerSec = s.victimRate * 8.0; // never the limiter
    victim.queueFirst = 0;
    victim.queueCount = 4;

    dp::TenantSpec aggressor;
    aggressor.name = "aggressor";
    aggressor.weight = 1;
    aggressor.priority = 0;
    aggressor.rateLimitPerSec = s.aggressorLimit;
    aggressor.queueFirst = 4;
    aggressor.queueCount = 4;

    sc.tenants = {victim, aggressor};
    sc.shedLowWatermark = 512;
    sc.shedHighWatermark = 4096;
    return sc;
}

server::LoadGenConfig
tenantLoadConfig(std::uint16_t port, unsigned tenantId, double rate,
                 double seconds)
{
    server::LoadGenConfig lc;
    lc.serverPort = port;
    lc.ratePerSec = rate;
    lc.durationSec = seconds;
    lc.numFlows = 64;
    lc.tenantId = tenantId;
    lc.numTenants = 2;
    lc.seed = 71 + tenantId;
    return lc;
}

ServerSnapshot
snapshot(const server::UdpServer &srv)
{
    ServerSnapshot out;
    const server::ServerCounterSnapshot c = srv.counterSnapshot();
    out.shedRateLimited = c.shedRateLimited;
    out.shedWatermark = c.shedWatermark;
    out.shedQueueFull = c.shedQueueFull;
    const server::ServerCounterSnapshot victim = srv.counterSnapshot(0);
    const server::ServerCounterSnapshot aggr = srv.counterSnapshot(1);
    out.victimAdmitted = victim.admitted;
    out.victimServed = victim.served;
    out.aggrAdmitted = aggr.admitted;
    out.aggrServed = aggr.served;
    out.aggrRateLimited = aggr.shedRateLimited;
    return out;
}

/** One server run; victim always, aggressor optionally (concurrent). */
std::optional<RunResult>
runScenario(const Scenario &s, bool withAggressor)
{
    server::UdpServer srv(tenantServerConfig(s));
    if (!srv.start())
        return std::nullopt;

    RunResult out;
    std::optional<server::LoadGenReport> victimRep;
    std::thread victimThread([&] {
        victimRep = server::UdpLoadGen(
                        tenantLoadConfig(srv.port(), 0, s.victimRate,
                                         s.seconds))
                        .run();
    });
    if (withAggressor) {
        out.aggressor =
            server::UdpLoadGen(tenantLoadConfig(srv.port(), 1,
                                                s.aggressorRate,
                                                s.seconds))
                .run();
    }
    victimThread.join();
    out.srv = snapshot(srv);
    srv.stop();
    if (!victimRep || (withAggressor && !out.aggressor))
        return std::nullopt;
    out.victim = std::move(*victimRep);
    return out;
}

/** The repeats' victim p99s as a JSON array. */
std::string
repeatsJson(const Condition &c)
{
    std::string out = "[";
    for (std::size_t i = 0; i < c.victimP99Us.size(); ++i) {
        if (i > 0)
            out += ",";
        out += stats::jsonNumber(c.victimP99Us[i]);
    }
    return out + "]";
}

std::string
resultsJson(const Condition &baseline, const Condition &underAttack)
{
    const auto num = [](std::uint64_t v) {
        return std::to_string(v);
    };
    const RunResult &base = baseline.best;
    const RunResult &attack = underAttack.best;
    std::string out = "{\"skipped\":false";
    out += ",\"host\":" + harness::hostJson();
    out += ",\"baseline\":{\"victim\":" + base.victim.json();
    out += ",\"victim_p99_us_repeats\":" + repeatsJson(baseline) + "}";
    out += ",\"attack\":{\"victim\":" + attack.victim.json();
    out += ",\"victim_p99_us_repeats\":" + repeatsJson(underAttack);
    out += ",\"aggressor\":" + attack.aggressor->json();
    const auto &sv = attack.srv;
    out += ",\"server\":{\"shed_rate_limited\":" + num(sv.shedRateLimited);
    out += ",\"shed_watermark\":" + num(sv.shedWatermark);
    out += ",\"shed_queue_full\":" + num(sv.shedQueueFull);
    out += ",\"tenant\":{\"victim\":{\"admitted\":" +
           num(sv.victimAdmitted) + ",\"served\":" +
           num(sv.victimServed) + "}";
    out += ",\"aggressor\":{\"admitted\":" + num(sv.aggrAdmitted) +
           ",\"served\":" + num(sv.aggrServed) +
           ",\"rate_limited\":" + num(sv.aggrRateLimited) + "}}}}}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::printTableI();
    harness::printExperimentBanner(
        "Extension: multi-tenant SLO isolation (adversarial neighbor)",
        "real loopback server, two tenants on disjoint queue groups: "
        "victim at fixed load vs an\naggressor offering >= 4x its "
        "admitted rate; admission + shedding must hold the victim's "
        "p99");

    const bool check = harness::argPresent(argc, argv, "--check");
    const bool quick = harness::argPresent(argc, argv, "--quick");
    const char *jsonPath = harness::argValue(argc, argv, "--json");
    const char *durArg = harness::argValue(argc, argv, "--duration");
    const char *floorArg =
        harness::argValue(argc, argv, "--p99-floor-us");

    const unsigned ncpu = std::thread::hardware_concurrency();
    Scenario s;
    if (quick) {
        s.victimRate = 3e3;
        s.aggressorRate = 10e3;
        s.aggressorLimit = 2.5e3;
        s.seconds = 0.4;
    }
    if (ncpu != 0 && ncpu < 4) {
        // Constrained box: halve the offered load so the server and
        // both load generators fit without drowning the CPU — the
        // isolation question is the same, just at lower absolute rate.
        s.victimRate /= 2;
        s.aggressorRate /= 2;
        s.aggressorLimit /= 2;
    }
    if (durArg != nullptr)
        s.seconds = std::atof(durArg);

    // Best-of-2 per condition: scheduler/background noise only ever
    // inflates the tail, so the lower-p99 repeat is the better estimate
    // of each condition's true latency.  Every repeat's p99 is kept, so
    // the export shows how far the repeats spread.
    const auto bestOf = [&s](bool withAggressor)
        -> std::optional<Condition> {
        auto a = runScenario(s, withAggressor);
        if (!a)
            return std::nullopt;
        Condition c;
        c.victimP99Us.push_back(a->victim.p99Us);
        c.best = std::move(*a);
        auto b = runScenario(s, withAggressor);
        if (b) {
            c.victimP99Us.push_back(b->victim.p99Us);
            if (b->victim.p99Us < c.best.victim.p99Us)
                c.best = std::move(*b);
        }
        return c;
    };
    const auto baseCond = bestOf(false);
    const auto attackCond = baseCond ? bestOf(true) : std::nullopt;
    if (!baseCond || !attackCond) {
        std::puts("SKIP: UDP loopback sockets unavailable in this "
                  "sandbox; tenant isolation not measured.");
        if (jsonPath != nullptr)
            harness::writeTextFile(jsonPath, "{\"skipped\":true}\n");
        return 0;
    }
    const RunResult &base = baseCond->best;
    const RunResult &attack = attackCond->best;

    // Percentiles come from each report's *per-tenant* section (the
    // one matching the tenant that generator targeted), exercising the
    // classification path the JSON export carries.
    stats::Table t("Victim vs aggressor, baseline and under attack");
    t.header({"run", "tenant", "offered/s", "answered", "shed", "lost",
              "p50 us", "p99 us", "p99.9 us"});
    const auto row = [&t](const char *run, const char *who,
                          unsigned tenantId,
                          const server::LoadGenReport &r) {
        const auto &ts = r.tenants.at(tenantId);
        t.row({run, who, stats::fmt(r.offeredPerSec, 0),
               stats::fmt(r.answeredRatio * 100, 2) + "%",
               std::to_string(ts.shed), std::to_string(r.lost),
               stats::fmt(ts.p50Us, 1), stats::fmt(ts.p99Us, 1),
               stats::fmt(ts.p999Us, 1)});
    };
    row("baseline", "victim", 0, base.victim);
    row("attack", "victim", 0, attack.victim);
    row("attack", "aggressor", 1, *attack.aggressor);
    t.print();

    const auto printRepeats = [](const char *run, const Condition &c) {
        std::printf("%s victim p99 per repeat:", run);
        for (double p99 : c.victimP99Us)
            std::printf(" %.1f", p99);
        std::puts(" us");
    };
    printRepeats("baseline", *baseCond);
    printRepeats("attack", *attackCond);
    const auto &sv = attack.srv;
    std::printf("sheds: rate-limited %llu, watermark %llu, queue-full "
                "%llu; aggressor admitted %llu / served %llu\n",
                static_cast<unsigned long long>(sv.shedRateLimited),
                static_cast<unsigned long long>(sv.shedWatermark),
                static_cast<unsigned long long>(sv.shedQueueFull),
                static_cast<unsigned long long>(sv.aggrAdmitted),
                static_cast<unsigned long long>(sv.aggrServed));
    std::puts("Expected: the victim's attack p99 stays within 2x its "
              "aggressor-idle baseline while the\naggressor's excess "
              "is answered with typed rejects (shed, not lost).");

    if (jsonPath != nullptr)
        harness::writeTextFile(
            jsonPath, resultsJson(*baseCond, *attackCond) + "\n");

    if (check) {
        bool ok = true;
        double floorUs = ncpu >= 4 ? victimP99FloorUs
                                   : victimP99FloorConstrainedUs;
        if (floorArg != nullptr)
            floorUs = std::atof(floorArg);
        const double p99Budget =
            2.0 * std::max(base.victim.p99Us, floorUs);
        if (attack.victim.p99Us > p99Budget) {
            std::printf("CHECK FAIL: victim p99 %.1f us > budget %.1f "
                        "us (2x max(baseline %.1f, floor %.1f))\n",
                        attack.victim.p99Us, p99Budget,
                        base.victim.p99Us, floorUs);
            ok = false;
        }
        if (attack.victim.answeredRatio < 0.999) {
            std::printf("CHECK FAIL: victim answered %.4f < 0.999\n",
                        attack.victim.answeredRatio);
            ok = false;
        }
        if (attack.victim.shed != 0) {
            std::printf("CHECK FAIL: victim shed %llu times (its rate "
                        "is far under its limit)\n",
                        static_cast<unsigned long long>(
                            attack.victim.shed));
            ok = false;
        }
        if (attack.aggressor->shed == 0) {
            std::puts("CHECK FAIL: aggressor excess was never shed");
            ok = false;
        }
        const double aggrLost =
            attack.aggressor->sent
                ? static_cast<double>(attack.aggressor->lost) /
                      static_cast<double>(attack.aggressor->sent)
                : 0.0;
        if (aggrLost > 0.05) {
            std::printf("CHECK FAIL: aggressor lost ratio %.4f > 0.05 "
                        "(rejects must be answered, not dropped)\n",
                        aggrLost);
            ok = false;
        }
        if (sv.victimAdmitted == 0 || sv.aggrAdmitted == 0 ||
            sv.aggrRateLimited == 0) {
            std::puts("CHECK FAIL: per-tenant counters not recorded");
            ok = false;
        }
        // The loadgen's per-tenant sections must agree with its global
        // accounting: each generator targets exactly one tenant, so
        // that tenant's section carries every answer and nothing leaks
        // into the other tenant's section.
        const auto sectionsConsistent =
            [](const server::LoadGenReport &r, unsigned tenantId) {
                if (r.tenants.size() != 2)
                    return false;
                const auto &own = r.tenants[tenantId];
                const auto &other = r.tenants[1 - tenantId];
                return own.answered == r.answered &&
                       own.shed == r.shed && other.answered == 0;
            };
        if (!sectionsConsistent(attack.victim, 0) ||
            !sectionsConsistent(*attack.aggressor, 1)) {
            std::puts("CHECK FAIL: loadgen per-tenant report sections "
                      "disagree with global accounting");
            ok = false;
        }
        if (!ok)
            return 1;
        std::puts("CHECK OK");
    }
    return 0;
}
