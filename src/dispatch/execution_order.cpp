#include "dispatch/execution_order.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace thermo::dispatch {

const char* schedule_policy_name(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo: return "fifo";
    case SchedulePolicy::kLjf: return "ljf";
    case SchedulePolicy::kEdf: return "edf";
  }
  return "?";
}

std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name) {
  if (name == "fifo") return SchedulePolicy::kFifo;
  if (name == "ljf") return SchedulePolicy::kLjf;
  if (name == "edf") return SchedulePolicy::kEdf;
  return std::nullopt;
}

std::vector<std::size_t> execution_order(const std::vector<Job>& jobs,
                                         std::vector<std::size_t> scheduled,
                                         SchedulePolicy policy) {
  for (const std::size_t i : scheduled) {
    THERMO_REQUIRE(std::isfinite(jobs[i].cost) && jobs[i].cost >= 0.0,
                   "execution_order: cost must be finite and >= 0");
    THERMO_REQUIRE(
        !std::isnan(jobs[i].deadline) && jobs[i].deadline > 0.0,
        "execution_order: deadline must be > 0 (kNoDeadline if unset)");
  }
  switch (policy) {
    case SchedulePolicy::kFifo:
      break;
    case SchedulePolicy::kLjf:
      std::stable_sort(scheduled.begin(), scheduled.end(),
                       [&jobs](std::size_t a, std::size_t b) {
                         return jobs[a].cost > jobs[b].cost;
                       });
      break;
    case SchedulePolicy::kEdf:
      std::stable_sort(scheduled.begin(), scheduled.end(),
                       [&jobs](std::size_t a, std::size_t b) {
                         return jobs[a].deadline < jobs[b].deadline;
                       });
      break;
  }
  return scheduled;
}

}  // namespace thermo::dispatch
