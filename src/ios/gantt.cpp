#include "ios/gantt.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/error.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::ios {
namespace {

/// Total character budget for the time axis.
constexpr int kWidth = 100;
constexpr std::int64_t kBatch = 1;

}  // namespace

std::string render_gantt(const graph::Graph& graph,
                         const simgpu::DeviceSpec& spec,
                         const Schedule& schedule) {
  validate_schedule(graph, schedule);
  const auto kernels = simgpu::make_kernel_table(graph);
  const std::size_t rows = std::max<std::size_t>(1, schedule.max_concurrency());

  // Modeled duration per stage and per kernel (solo costs; the group view).
  struct KernelCell {
    std::string name;
    double duration = 0.0;
  };
  struct StageLayout {
    double duration = 0.0;  // stage wall time (max group)
    std::vector<std::vector<KernelCell>> rows;
  };
  std::vector<StageLayout> stages;
  double total = 0.0;
  for (const Stage& stage : schedule.stages) {
    StageLayout layout;
    layout.rows.resize(rows);
    for (std::size_t g = 0; g < stage.groups.size(); ++g) {
      double group_time = 0.0;
      for (graph::OpId id : stage.groups[g].ops) {
        const auto cost = simgpu::kernel_cost(
            spec, kernels[static_cast<std::size_t>(id)], kBatch);
        layout.rows[g].push_back(
            {graph.node(id).name, cost.solo_seconds});
        group_time += cost.solo_seconds;
      }
      layout.duration = std::max(layout.duration, group_time);
    }
    total += layout.duration;
    stages.push_back(std::move(layout));
  }
  DCN_CHECK(total > 0.0) << "schedule has zero modeled duration";

  // Scale: characters per second.
  const double scale = (kWidth - static_cast<int>(stages.size())) / total;
  std::ostringstream os;
  os << "time -> (" << total * 1e6 << " us modeled kernel time, batch "
     << kBatch << ")\n";
  for (std::size_t row = 0; row < rows; ++row) {
    os << "stream " << row << " ";
    for (const StageLayout& stage : stages) {
      const int stage_chars = std::max(
          1, static_cast<int>(stage.duration * scale));
      std::string band;
      for (const KernelCell& cell : stage.rows[row]) {
        int cell_chars = std::max(
            1, static_cast<int>(cell.duration * scale));
        std::string label = "[" + cell.name;
        if (static_cast<int>(label.size()) + 1 > cell_chars) {
          label = label.substr(0, std::max(1, cell_chars - 1));
        }
        label += std::string(
            std::max<std::int64_t>(0, cell_chars - 1 -
                                          static_cast<std::int64_t>(
                                              label.size())),
            '-');
        label += "]";
        band += label;
      }
      if (static_cast<int>(band.size()) < stage_chars) {
        band += std::string(stage_chars - band.size(), ' ');
      }
      os << band << '|';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace dcn::ios
