// The JSON export of the gated benches (BENCH_*.json). Each metric is added
// with its value, its decimals and its gate, the rule tools/bench_compare.py
// holds it to against the committed baseline. The document lists the keys
// in call order, nested objects included, then one "gates" object that maps
// each gated key's dotted path to its rule, e.g.
//   "dynamic.p99_ms": {"better": "lower", "relative": 0.02}
// A key without a gate is informational: compared, never failed.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/table.hpp"

namespace dcn::bench {

/// The better direction and how far a run may move the other way: a
/// fraction of the baseline value ("relative") or an amount in the key's
/// own units ("absolute"). The default gate is informational.
struct Gate {
  const char* better = nullptr;  // "lower", "higher", or null
  const char* kind = "relative";
  double tolerance = 0.0;
};

/// Lower / higher is better, within 2% of the baseline value.
constexpr Gate kLower{"lower", "relative", 0.02};
constexpr Gate kHigher{"higher", "relative", 0.02};
/// Lower / higher is better, within `tolerance` in the key's units.
constexpr Gate lower_within(double tolerance) {
  return {"lower", "absolute", tolerance};
}
constexpr Gate higher_within(double tolerance) {
  return {"higher", "absolute", tolerance};
}

class Report {
 public:
  /// A label or config echo, written as a JSON string.
  void add(const std::string& key, const std::string& value) {
    this->key(key);
    body_ += quoted(value);
  }

  /// A finite number with `digits` decimals (0 for counts).
  void add(const std::string& key, double value, int digits, Gate gate = {}) {
    DCN_CHECK(std::isfinite(value)) << "metric " << key << " is " << value;
    this->key(key);
    body_ += format_double(value, digits);
    if (gate.better == nullptr) return;
    std::string path;
    for (const std::string& name : open_) path += name + ".";
    std::ostringstream rule;
    rule << quoted(path + key) << ": {\"better\": \"" << gate.better
         << "\", \"" << gate.kind << "\": " << gate.tolerance << "}";
    gates_.push_back(rule.str());
  }

  /// Opens / closes a nested object; its gated keys get "name." paths.
  void begin(const std::string& key) {
    this->key(key);
    body_ += "{";
    open_.push_back(key);
    first_ = true;
  }
  void end() {
    DCN_CHECK(!open_.empty()) << "end() without begin()";
    open_.pop_back();
    body_ += "\n" + std::string(2 * open_.size() + 2, ' ') + "}";
    first_ = false;
  }

  std::string json() const {
    DCN_CHECK(open_.empty()) << "object " << open_.back() << " left open";
    std::string gates;
    for (const std::string& rule : gates_) {
      gates += (gates.empty() ? "\n    " : ",\n    ") + rule;
    }
    return "{" + body_ + (body_.empty() ? "\n" : ",\n") + "  \"gates\": {" +
           gates + (gates.empty() ? "}" : "\n  }") + "\n}\n";
  }

  /// Writes json() to `path` and says so on stdout.
  void write(const std::string& path) const {
    std::ofstream out(path);
    DCN_CHECK(out.good()) << "cannot open " << path << " for writing";
    out << json();
    DCN_CHECK(out.good()) << "write to " << path << " failed";
    std::printf("JSON written to %s\n", path.c_str());
  }

 private:
  static std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  void key(const std::string& key) {
    body_ += first_ ? "\n" : ",\n";
    body_ += std::string(2 * open_.size() + 2, ' ') + quoted(key) + ": ";
    first_ = false;
  }

  std::string body_;
  std::vector<std::string> open_;  // names of the open nested objects
  bool first_ = true;              // no key yet in the innermost object
  std::vector<std::string> gates_;
};

}  // namespace dcn::bench
