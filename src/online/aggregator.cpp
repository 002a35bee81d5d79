#include "online/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/metrics.hpp"
#include "sketch/sketch_aggregator.hpp"

namespace microscope::online {

StreamingAggregator::StreamingAggregator(StreamingAggregatorOptions opts)
    : opts_(opts) {}

void StreamingAggregator::ingest(std::span<const core::Diagnosis> diagnoses) {
  // Decay first so the newest window always enters at full weight.
  for (auto it = board_.begin(); it != board_.end();) {
    it->second.score *= opts_.decay;
    if (it->second.score < opts_.min_score) {
      it = board_.erase(it);
    } else {
      ++it;
    }
  }
  for (const core::Diagnosis& d : diagnoses) {
    for (const core::CausalRelation& rel : d.relations) {
      Entry& e = board_[rel.culprit];
      e.score += rel.score;
      e.last_seen = std::max(e.last_seen, rel.culprit_t1);
    }
  }
  // windows_seen counts windows, not relations: one pass over the distinct
  // culprits of this window.
  std::set<core::Culprit> seen;
  for (const core::Diagnosis& d : diagnoses)
    for (const core::CausalRelation& rel : d.relations)
      seen.insert(rel.culprit);
  for (const core::Culprit& culprit : seen)
    board_[culprit].windows_seen += 1;

  // Hard cap: with min_score == 0 (or decay == 1.0) the decay pass above
  // never erases anything, so the board would otherwise grow with the
  // culprit population forever. Evict lowest score first, smallest key on
  // ties — deterministic, and established mass always survives a trickle.
  if (opts_.max_board_entries > 0 &&
      board_.size() > opts_.max_board_entries) {
    std::vector<std::pair<double, core::Culprit>> order;
    order.reserve(board_.size());
    for (const auto& [culprit, e] : board_)
      order.emplace_back(e.score, culprit);
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;
              });
    const std::size_t excess = board_.size() - opts_.max_board_entries;
    for (std::size_t i = 0; i < excess; ++i)
      board_.erase(order[i].second);
    board_evicted_ += excess;
    board_evicted_metric().add(excess);
  }

  recent_.push_back(autofocus::flatten_diagnoses(diagnoses));
  while (recent_.size() > opts_.max_windows) recent_.pop_front();
  ++windows_;
}

std::vector<TopCulprit> StreamingAggregator::top() const {
  std::vector<TopCulprit> out;
  out.reserve(board_.size());
  for (const auto& [culprit, e] : board_)
    out.push_back({culprit, e.score, e.windows_seen, e.last_seen});
  std::sort(out.begin(), out.end(),
            [](const TopCulprit& a, const TopCulprit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.culprit < b.culprit;
            });
  if (out.size() > opts_.top_k) out.resize(opts_.top_k);
  return out;
}

std::vector<autofocus::Pattern> StreamingAggregator::patterns(
    const autofocus::NfCatalog& catalog,
    const autofocus::AggregateOptions& opts) const {
  std::vector<autofocus::RelationRecord> all;
  all.reserve(retained_records());
  // Per-window scale computed directly as decay^age: the newest window
  // (age 0) is bit-exactly 1.0 (IEEE pow(x, 0) == 1), and decay == 0 means
  // "only the newest window" (pow(0, age > 0) == 0) instead of silently
  // degrading to no decay as the old running scale /= decay did — that
  // repeated division also accumulated rounding error across windows.
  const std::size_t n = recent_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double age = static_cast<double>(n - 1 - i);  // newest: age 0
    const double scale = std::pow(opts_.decay, age);
    for (autofocus::RelationRecord r : recent_[i]) {
      r.score *= scale;
      all.push_back(r);
    }
  }
  return autofocus::aggregate_patterns(all, catalog, opts);
}

std::size_t StreamingAggregator::memory_bytes() const {
  // Estimated: board map nodes plus retained relation records.
  constexpr std::size_t kBoardEntryBytes = 96;
  return board_.size() * kBoardEntryBytes +
         retained_records() * sizeof(autofocus::RelationRecord);
}

std::size_t StreamingAggregator::retained_records() const {
  std::size_t n = 0;
  for (const auto& w : recent_) n += w.size();
  return n;
}

std::unique_ptr<CulpritAggregator> make_aggregator(
    const StreamingAggregatorOptions& opts, std::size_t memory_budget,
    const autofocus::NfCatalog& catalog) {
  if (memory_budget == 0)
    return std::make_unique<StreamingAggregator>(opts);
  return std::make_unique<sketch::SketchAggregator>(
      sketch::SketchOptions::from_streaming(opts, memory_budget), catalog);
}

}  // namespace microscope::online
