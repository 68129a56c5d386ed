// Named global counters.
//
// Span recording captures *when* things happened; counters capture *how
// often* — cache hits, cache misses, retries — across the whole process,
// including subsystems that run outside any recorded device session (the
// tile tuner runs on the host, with no simulated device at all).
// render_report appends a Counters section and to_chrome_trace emits one
// counter ("C") event per name, so the numbers ride along with every
// profiling artifact.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dcn::profiler {

/// Add `delta` to the named counter (thread-safe; unknown names start at 0).
void counter_add(const std::string& name, std::int64_t delta = 1);

/// Current value of one counter (0 for names never incremented).
std::int64_t counter_value(const std::string& name);

/// Snapshot of every counter, ordered by name.
std::map<std::string, std::int64_t> counter_snapshot();

/// Reset all counters to zero (fresh campaigns and test isolation).
void reset_counters();

}  // namespace dcn::profiler
