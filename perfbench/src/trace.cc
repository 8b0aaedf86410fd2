#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common.h"

namespace perfbench {

uint32_t Tracer::Open(const char* name, uint64_t request, int64_t start_ns) {
  // A span under a dropped parent is dropped too, so no orphan becomes a
  // root of its own.
  if (spans_.size() >= kMaxSpans || (!open_.empty() && open_.back() == 0)) {
    ++dropped_;
    open_.push_back(0);
    return 0;
  }
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = open_.empty() ? 0 : open_.back();
  span.request = request;
  spans_.push_back(span);
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::Close(uint32_t id, int64_t end_ns) {
  if (open_.empty() || open_.back() != id) return;
  open_.pop_back();
  if (id != 0) spans_[id - 1].end_ns = end_ns;
}

uint32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint32_t parent, uint64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<uint32_t>(spans_.size());
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), start_ns_(NowNs()) {
  if (tracer_ != nullptr) id_ = tracer_->Open(name, request, start_ns_);
}

int64_t ScopedSpan::Stop() {
  if (elapsed_ns_ < 0) {
    const int64_t end = NowNs();
    elapsed_ns_ = end - start_ns_;
    if (tracer_ != nullptr) tracer_->Close(id_, end);
  }
  return elapsed_ns_;
}

namespace {

std::string LayerOf(const char* name) {
  std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

}  // namespace

Ledger Tracer::BuildLedger() const {
  Ledger ledger;
  const size_t n = spans_.size();
  std::vector<int64_t> child_ns(n, 0);
  std::vector<int64_t> last_child_end(n + 1, INT64_MIN);
  std::vector<uint32_t> root_of(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      ledger.problems.push_back(std::string("unclosed span ") + s.name);
      continue;
    }
    if (s.parent == 0) {
      root_of[i] = static_cast<uint32_t>(i + 1);
      continue;
    }
    const Span& p = spans_[s.parent - 1];
    // Children are recorded after their parent, in start order; each must
    // lie inside its parent and after its previous sibling.
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
        s.start_ns < last_child_end[s.parent]) {
      ledger.problems.push_back(std::string("span ") + s.name +
                                " escapes its parent " + p.name +
                                " or overlaps a sibling");
    }
    last_child_end[s.parent] = s.end_ns;
    child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    root_of[i] = root_of[s.parent - 1];
  }
  std::map<std::string, size_t> path_index;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns || root_of[i] == 0) continue;
    const Span& root = spans_[root_of[i] - 1];
    auto [it, fresh] = path_index.try_emplace(root.name, ledger.paths.size());
    if (fresh) {
      ledger.paths.emplace_back();
      ledger.paths.back().root = root.name;
    }
    LedgerPath& path = ledger.paths[it->second];
    const int64_t self = (s.end_ns - s.start_ns) - child_ns[i];
    if (s.parent == 0) {
      ++path.count;
      path.total_ns += s.end_ns - s.start_ns;
      path.residual_ns += self;
    } else {
      path.layer_self_ns[LayerOf(s.name)] += self;
    }
  }
  return ledger;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%u,\"request\":%llu}\n",
                 i + 1, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void Ledger::AddDecomposition(const std::string& name, const std::string& unit,
                              double total, std::map<std::string, double> parts) {
  Decomposition d{name, unit, total, std::move(parts), 0.0};
  double explained = 0.0;
  for (const auto& [part, value] : d.parts) explained += value;
  d.residual = total - explained;
  decompositions.push_back(std::move(d));
}

bool Ledger::Check() {
  for (const LedgerPath& p : paths) {
    int64_t sum = p.residual_ns;
    for (const auto& [layer, ns] : p.layer_self_ns) {
      sum += ns;
      if (ns < 0) problems.push_back(p.root + ": negative self time in " + layer);
    }
    if (p.residual_ns < 0) problems.push_back(p.root + ": negative residual");
    if (sum != p.total_ns) problems.push_back(p.root + ": layers + residual != total");
  }
  for (const Decomposition& d : decompositions) {
    double sum = d.residual;
    for (const auto& [part, value] : d.parts) sum += value;
    if (std::abs(sum - d.total) > 1e-9 * std::abs(d.total)) {
      problems.push_back(d.name + ": parts + residual != total");
    }
  }
  return problems.empty();
}

std::string Ledger::ToJson() const {
  std::string out = "{\"paths\":[";
  char buf[256];
  for (size_t i = 0; i < paths.size(); ++i) {
    const LedgerPath& p = paths[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"root\":\"%s\",\"count\":%llu,\"total_ns\":%lld,"
                  "\"residual_ns\":%lld,\"layers_self_ns\":{",
                  i ? "," : "", p.root.c_str(),
                  static_cast<unsigned long long>(p.count),
                  static_cast<long long>(p.total_ns),
                  static_cast<long long>(p.residual_ns));
    out += buf;
    bool first = true;
    for (const auto& [layer, ns] : p.layer_self_ns) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%lld", first ? "" : ",",
                    layer.c_str(), static_cast<long long>(ns));
      out += buf;
      first = false;
    }
    out += "}}";
  }
  out += "],\"decompositions\":[";
  for (size_t i = 0; i < decompositions.size(); ++i) {
    const Decomposition& d = decompositions[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"unit\":\"%s\",\"total\":%.9g,"
                  "\"residual\":%.9g,\"parts\":{",
                  i ? "," : "", d.name.c_str(), d.unit.c_str(), d.total,
                  d.residual);
    out += buf;
    bool first = true;
    for (const auto& [part, value] : d.parts) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", first ? "" : ",",
                    part.c_str(), value);
      out += buf;
      first = false;
    }
    out += "}}";
  }
  out += "],\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i) {
    out += (i ? ",\"" : "\"") + problems[i] + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
