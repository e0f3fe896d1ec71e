#include "trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {

int64_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Now();
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %lld closed out of order\n",
                 static_cast<long long>(id));
    std::abort();
  }
  spans_[static_cast<size_t>(id)].end = Now();
  open_.pop_back();
}

double Tracer::Min(const std::string& name) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Span& s : spans_) {
    if (s.name == name) best = std::min(best, s.Duration());
  }
  return best == std::numeric_limits<double>::infinity() ? 0.0 : best;
}

std::map<std::string, double> Tracer::SelfTimes() const {
  // Children of each span, as intervals; their union is subtracted.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_start = 0.0, cur_end = -1.0;
    for (const auto& [b, e] : kids) {
      if (b > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = b;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    self[spans_[i].name] += spans_[i].Duration() - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld}%s\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"self_seconds\": {\n");
  const auto self = SelfTimes();
  size_t k = 0;
  for (const auto& [name, secs] : self) {
    std::fprintf(f, "  \"%s\": %.9f%s\n", name.c_str(), secs,
                 ++k < self.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
