/**
 * @file
 * A named monotonic event counter: the unit every simulator component
 * exports into the stats registry.
 */

#ifndef HYPERPLANE_STATS_COUNTER_HH
#define HYPERPLANE_STATS_COUNTER_HH

#include <cstdint>
#include <string>

namespace hyperplane {
namespace stats {

/** A named monotonic event counter. */
class Counter
{
  public:
    Counter() = default;
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }
    void clear() { value_ = 0; }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

} // namespace stats
} // namespace hyperplane

#endif // HYPERPLANE_STATS_COUNTER_HH
