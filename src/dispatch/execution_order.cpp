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
    case SchedulePolicy::kPriority: return "priority";
    case SchedulePolicy::kSrpt: return "srpt";
  }
  return "?";
}

std::optional<SchedulePolicy> schedule_policy_from_name(std::string_view name) {
  if (name == "fifo") return SchedulePolicy::kFifo;
  if (name == "ljf") return SchedulePolicy::kLjf;
  if (name == "edf") return SchedulePolicy::kEdf;
  if (name == "priority") return SchedulePolicy::kPriority;
  if (name == "srpt") return SchedulePolicy::kSrpt;
  return std::nullopt;
}

std::vector<std::size_t> execution_order(std::vector<WorkItem> items,
                                         SchedulePolicy policy) {
  for (const WorkItem& item : items) {
    THERMO_REQUIRE(std::isfinite(item.cost) && item.cost >= 0.0,
                   "execution_order: cost must be finite and >= 0");
    THERMO_REQUIRE(
        !std::isnan(item.deadline) && item.deadline > 0.0,
        "execution_order: deadline must be > 0 (kNoDeadline if unset)");
    THERMO_REQUIRE(std::isfinite(item.priority) && item.priority > 0.0,
                   "execution_order: priority must be finite and > 0");
  }
  const auto sort_by = [&items](auto before) {
    std::stable_sort(items.begin(), items.end(), before);
  };
  switch (policy) {
    case SchedulePolicy::kFifo:
      break;
    case SchedulePolicy::kLjf:
      sort_by([](const WorkItem& a, const WorkItem& b) { return a.cost > b.cost; });
      break;
    case SchedulePolicy::kEdf:
      sort_by([](const WorkItem& a, const WorkItem& b) {
        return a.deadline < b.deadline;
      });
      break;
    case SchedulePolicy::kPriority:
      // WSPT: a.cost/a.priority < b.cost/b.priority, cross-multiplied so
      // the comparison is exact (priorities are guarded finite positive).
      sort_by([](const WorkItem& a, const WorkItem& b) {
        return a.cost * b.priority < b.cost * a.priority;
      });
      break;
    case SchedulePolicy::kSrpt:
      sort_by([](const WorkItem& a, const WorkItem& b) { return a.cost < b.cost; });
      break;
  }
  std::vector<std::size_t> order;
  order.reserve(items.size());
  for (const WorkItem& item : items) order.push_back(item.index);
  return order;
}

}  // namespace thermo::dispatch
