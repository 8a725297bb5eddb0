#include "sweep/grid.h"

#include <stdexcept>

#include "sim/format.h"

namespace ntier::sweep {

std::string GridPoint::label(const std::vector<Axis>& axes) const {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i)
    sim::appendf(out, i > 0 ? " %s=%.10g" : "%s=%.10g",
                 i < axes.size() ? axes[i].name.c_str() : "?", values[i]);
  return out;
}

Grid& Grid::add_axis(std::string name, std::vector<double> values) {
  if (name.empty()) throw std::invalid_argument("sweep axis needs a name");
  if (values.empty())
    throw std::invalid_argument("sweep axis '" + name + "' needs >= 1 value");
  for (const Axis& a : axes_)
    if (a.name == name)
      throw std::invalid_argument("duplicate sweep axis '" + name + "'");
  axes_.push_back(Axis{std::move(name), std::move(values)});
  return *this;
}

std::size_t Grid::size() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.values.size();
  return n;
}

std::vector<GridPoint> Grid::points() const {
  const std::size_t total = size();
  std::vector<GridPoint> out;
  out.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    GridPoint p;
    p.index = i;
    p.values.resize(axes_.size());
    // Decode the row-major rank, last axis fastest.
    std::size_t rem = i;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      const auto& vals = axes_[a].values;
      p.values[a] = vals[rem % vals.size()];
      rem /= vals.size();
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace ntier::sweep
