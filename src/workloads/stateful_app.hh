/**
 * @file
 * The stateful application suite (src/app) wrapped as simulator
 * workloads, so the SDP simulation exercises the same handler code the
 * UDP server dispatches to.
 *
 * Per item, the wrapper synthesizes the flow's next request payload
 * with app::synthesizeRequest (the same generator the load generator
 * uses, so sim and server see identically-shaped streams), runs the
 * real handler, and charges the timing model a base cost plus
 * cyclesPerStateOp for every state operation the handler reports.
 *
 * Sharding: the item's queue id is the shard, as in the UDP server.
 * Each shard's state includes the wrapper's per-flow synthesis
 * counters, so a run is as deterministic as the event order itself.
 */

#ifndef HYPERPLANE_WORKLOADS_STATEFUL_APP_HH
#define HYPERPLANE_WORKLOADS_STATEFUL_APP_HH

#include <unordered_map>
#include <vector>

#include "app/app.hh"
#include "workloads/workload.hh"

namespace hyperplane {
namespace workloads {

/** One src/app handler behind the Workload interface. */
class StatefulApp : public Workload
{
  public:
    /** Extra service cycles charged per reported state operation. */
    static constexpr Tick cyclesPerStateOp = 350;

    StatefulApp(app::AppKind appKind, std::uint64_t seed,
                unsigned numShards);

    Kind kind() const override;
    void execute(const queueing::WorkItem &item) override;
    Tick serviceCycles(const queueing::WorkItem &item) const override;
    Tick onItem(const queueing::WorkItem &item) override;
    unsigned dataLines(const queueing::WorkItem &item) const override;
    std::uint32_t defaultPayloadBytes() const override;

    /** The wrapped handler (bench/tests read its counters). */
    app::StatefulHandler &handler() { return *handler_; }
    const app::StatefulHandler &handler() const { return *handler_; }

    /** Items processed / handled ok, summed across shards. */
    std::uint64_t processed() const;
    std::uint64_t handledOk() const;

  private:
    /** Per-flow request-synthesis state (packet counter, spin bit). */
    struct FlowSynth
    {
        std::uint64_t seq = 0;
        std::uint8_t spin = 0;
    };

    /** Shard-local synthesis state: shard == queue id, so no locking
     *  (counters included — summed only after the run). */
    struct ShardSynth
    {
        std::unordered_map<std::uint32_t, FlowSynth> flows;
        std::uint64_t processed = 0;
        std::uint64_t handledOk = 0;
    };

    app::AppKind appKind_;
    std::unique_ptr<app::StatefulHandler> handler_;
    std::vector<ShardSynth> synth_;
};

} // namespace workloads
} // namespace hyperplane

#endif // HYPERPLANE_WORKLOADS_STATEFUL_APP_HH
