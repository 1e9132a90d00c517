/**
 * @file
 * The benchmark's own tests: the generator schedule, the percentile
 * support rule, the loss identity, the result transport, and that the
 * server's CPU figure excludes the generator process.
 *
 *   python3 perfbench/run.py --self-test
 *
 * Exits 0 when every check holds; prints each failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gen.hh"
#include "measure.hh"
#include "phases.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<Departure>
departures(std::uint64_t seed, const std::vector<TenantLoad> &loads,
           std::size_t n)
{
    Schedule s(seed, loads);
    std::vector<Departure> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(s.next());
    return out;
}

bool
same(const std::vector<Departure> &a, const std::vector<Departure> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].dueNs != b[i].dueNs || a[i].tenant != b[i].tenant ||
            a[i].flow != b[i].flow)
            return false;
    return true;
}

void
testSchedule()
{
    TenantLoad v;
    v.rate = 3000.0;
    v.numFlows = 64;
    TenantLoad a = v;
    a.rate = 1000.0;
    a.shape = hyperplane::traffic::Shape::Zipf;
    const std::vector<TenantLoad> loads = {v, a};
    const std::size_t n = 20000;

    const auto d1 = departures(7, loads, n);
    check(same(d1, departures(7, loads, n)),
          "schedule is a pure function of seed and rates");
    check(!same(d1, departures(8, loads, n)), "seed changes the schedule");

    // Mean gap follows the total rate; tenant shares follow the rates.
    const double meanGapNs = static_cast<double>(d1.back().dueNs) / n;
    check(std::abs(meanGapNs - 1e9 / 4000.0) < 0.03 * (1e9 / 4000.0),
          "mean departure gap is 1/total rate");
    std::size_t second = 0;
    bool ordered = true;
    for (std::size_t i = 0; i < n; ++i) {
        second += d1[i].tenant == 1;
        ordered = ordered && (i == 0 || d1[i].dueNs >= d1[i - 1].dueNs);
        check(d1[i].flow < 64, "flow index within the tenant's flows");
    }
    check(ordered, "due times never decrease");
    check(std::abs(static_cast<double>(second) / n - 0.25) < 0.02,
          "tenant share follows its rate");

    std::vector<TenantLoad> doubled = loads;
    for (auto &t : doubled)
        t.rate *= 2.0;
    const auto d2 = departures(7, doubled, n);
    check(d2.back().dueNs * 2 > d1.back().dueNs * 99 / 100 &&
              d2.back().dueNs * 2 < d1.back().dueNs * 101 / 100,
          "doubling the rate halves every due time");

    // Flow-coherent opcodes: a flow keeps one opcode; weights are used.
    TenantLoad mix;
    mix.numFlows = 4096;
    mix.opcodeWeights = {0, 0, 0, 1, 1, 1};
    TenantTraffic t(mix, 3);
    unsigned seen[hyperplane::server::wire::numOpcodes] = {};
    for (unsigned f = 0; f < mix.numFlows; ++f)
        ++seen[t.opcodeOf(f)];
    check(seen[0] + seen[1] + seen[2] == 0, "zero-weight opcodes unused");
    check(seen[3] > 1100 && seen[4] > 1100 && seen[5] > 1100,
          "app opcodes weighted evenly over flows");
}

void
testPercentileSupport()
{
    check(supportedQuantile(1000, 0.99) == 0.99, "p99 of 1000 samples");
    check(supportedQuantile(999, 0.99) == 0.9, "p99 of 999 falls to p90");
    check(supportedQuantile(99, 0.99) == 0.5, "p99 of 99 falls to p50");
    check(supportedQuantile(19, 0.5) == 0.0, "p50 of 19 is unsupported");
    check(supportedQuantile(100000, 0.5) == 0.5, "never above the request");

    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(1001 - i);
    Percentile p = percentile(v, 0.99);
    check(p.ok && p.q == 0.99 && p.value == 990.0, "exact p99 of 1..1000");
    std::vector<double> w(v.begin(), v.begin() + 500);
    p = percentile(w, 0.99);
    check(p.ok && p.q == 0.9, "p99 of 500 reported as p90");
    // Every reported rung leaves at least ten samples beyond it.
    for (std::uint64_t n = 20; n < 3000; n += 37) {
        const double q = supportedQuantile(n, 0.99);
        check(q > 0.0 && static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9,
              "ten samples beyond every reported percentile");
    }
}

void
testLossIdentity()
{
    // 1000 sent: 900 answered, 50 shed, 50 lost of which 10 send
    // failures, 20 server drops, 5 kernel drops, 15 unexplained.
    LossReport r = attributeLoss(1000, 900, 50, 10, 20, 5);
    check(r.identityHolds(), "identity on a synthetic report");
    check(r.lost == 50 && r.sendFail == 10 && r.serverDrops == 20 &&
              r.kernelRcvbuf == 5 && r.unattributed == 15,
          "loss split by cause");
    // A host-wide kernel counter larger than the loss is capped.
    r = attributeLoss(1000, 900, 50, 10, 20, 500);
    check(r.identityHolds() && r.kernelRcvbuf == 20 && r.unattributed == 0,
          "attribution never exceeds loss");
    r = attributeLoss(1000, 990, 20, 0, 0, 0);
    check(!r.identityHolds(), "more answers than requests breaks identity");
}

void
testTransport()
{
    GenConfig g;
    g.port = 4242;
    g.seconds = 2.5;
    g.seed = 99;
    TenantLoad t;
    t.rate = 1234.5;
    t.numFlows = 77;
    t.shape = hyperplane::traffic::Shape::NC;
    t.opcodeWeights = {1, 2, 0, 0, 0, 3};
    g.tenants = {t, TenantLoad{}};
    GenConfig back;
    check(GenConfig::fromArgs(g.toArgs(), back), "config round trip parses");
    check(back.port == 4242 && back.seconds == 2.5 && back.seed == 99 &&
              back.tenants.size() == 2 && back.tenants[0].rate == 1234.5 &&
              back.tenants[0].numFlows == 77 &&
              back.tenants[0].shape == hyperplane::traffic::Shape::NC &&
              back.tenants[0].opcodeWeights[5] == 3.0,
          "config round trip keeps every field");
    std::vector<std::string> bad = g.toArgs();
    bad[1] = "two";
    check(!GenConfig::fromArgs(bad, back), "malformed number rejected");
    bad = g.toArgs();
    bad.pop_back();
    check(!GenConfig::fromArgs(bad, back), "short argument list rejected");

    GenResult r;
    r.attempted = 10;
    r.okAnswered = 7;
    r.shed = 2;
    r.flowReorders = 1;
    r.windowP50Us = {1.5, 2.5};
    r.windowP99Us = {9.25};
    r.p50Us = 3.125;
    const GenResult b = GenResult::parse(r.serialize());
    check(b.attempted == 10 && b.okAnswered == 7 && b.shed == 2 &&
              b.flowReorders == 1 && b.windowP50Us == r.windowP50Us &&
              b.windowP99Us == r.windowP99Us && b.p50Us == 3.125,
          "result round trip keeps every field");
}

void
testSdpResultsCompare()
{
    hyperplane::dp::SdpResults a, b;
    a.p99LatencyUs = b.p99LatencyUs = 1.0;
    check(sameResults(a, b), "equal results compare equal");
    b.p99LatencyUs = std::nextafter(1.0, 2.0);
    check(!sameResults(a, b), "a one-ulp difference is detected");
}

void
burn(double sec)
{
    const double t0 = threadCpuSec();
    volatile double x = 0;
    while (threadCpuSec() - t0 < sec)
        x = x + 1.0;
}

void
testCpuExcludesChild()
{
    // The server's CPU figure is selfUsage() over the phase; the
    // generator is a child process whose CPU must not appear in it.
    const Usage self0 = selfUsage(), kids0 = childrenUsage();
    Child c = spawnSelf({"--burn", "0.3"});
    check(c.pid > 0, "child spawned");
    std::string line;
    check(readLine(c.fromChild, line) && line == "done", "child ran");
    check(finishChild(c) == 0, "child exited cleanly");
    const Usage self1 = selfUsage(), kids1 = childrenUsage();
    check(kids1.cpuSec - kids0.cpuSec >= 0.25, "child CPU is seen");
    check(self1.cpuSec - self0.cpuSec < 0.1,
          "child CPU is not billed to this process");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--burn") == 0) {
        burn(std::atof(argv[2]));
        std::printf("done\n");
        return 0;
    }
    testSchedule();
    testPercentileSupport();
    testLossIdentity();
    testTransport();
    testSdpResultsCompare();
    testCpuExcludesChild();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "ok", failures);
    return failures ? 1 : 0;
}
