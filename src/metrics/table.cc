#include "metrics/table.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

#include "sim/format.h"

namespace ntier::metrics {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

Table& Table::cell(std::string v) {
  pending_.push_back(std::move(v));
  if (pending_.size() == headers_.size()) end_row();
  return *this;
}

void Table::end_row() {
  if (!pending_.empty()) {
    pending_.resize(headers_.size());
    rows_.push_back(std::move(pending_));
    pending_.clear();
  }
}

std::string Table::to_string() const {
  std::vector<std::size_t> w(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) w[c] = std::max(w[c], r[c].size());

  auto emit = [&](const std::vector<std::string>& r, std::string& out) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      out += r[c];
      if (c + 1 < r.size()) out.append(w[c] - r[c].size() + 2, ' ');
    }
    out += '\n';
  };
  std::string out;
  emit(headers_, out);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule.append(w[c], '-');
    if (c + 1 < headers_.size()) rule.append(2, ' ');
  }
  out += rule + '\n';
  for (const auto& r : rows_) emit(r, out);
  return out;
}

std::string Table::num(double v, int decimals) {
  std::string out;
  sim::appendf(out, "%.*f", decimals, v);
  return out;
}

std::string Table::num(std::uint64_t v) {
  std::string out;
  sim::appendf(out, "%" PRIu64, v);
  return out;
}

}  // namespace ntier::metrics
