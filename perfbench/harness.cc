#include "harness.h"

#include <map>
#include <utility>

namespace perfbench {

thread_local std::int32_t Tracer::current_ = -1;

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::vector<SpanSummary> summarize(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::map<std::string, SpanSummary> by_name;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::int32_t c : children[i]) {
      const Tracer::Span& cs = spans[static_cast<std::size_t>(c)];
      cover.emplace_back(std::max(cs.start_ns, s.start_ns),
                         std::min(cs.end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    auto [it, inserted] = by_name.try_emplace(s.name);
    if (inserted) {
      it->second.name = s.name;
      order.push_back(s.name);
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++it->second.count;
    it->second.total_ms += static_cast<double>(dur) / 1e6;
    it->second.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  std::vector<SpanSummary> out;
  for (const std::string& name : order) out.push_back(by_name[name]);
  return out;
}

}  // namespace perfbench
