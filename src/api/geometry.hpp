// dbi::Geometry: the one bus-shape type, from the Session API down into
// the engine and the trace layer.
//
// A bus is a set of DBI groups, one DBI line each:
//   * one group of 1..32 DQ lines (narrow, groups() == 1), packed as
//     bytes_per_beat() little-endian bytes per beat;
//   * up to 64 DQ lines split into byte groups (the JEDEC x16/x32/x64
//     arrangement), packed beat-major with byte g of a beat carrying
//     group g. Odd widths end in a narrower remainder group.
// The form is canonical: groups() is 1 or ceil(width / 8), and a wide
// bus of at most 8 lines IS the narrow bus of that width
// (wide(5) == narrow(5)) — the same single group, the same packed
// bytes. BusConfig and WideBusConfig convert implicitly; bus() /
// wide_bus() hand them back where a caller still speaks them.
#pragma once

#include <stdexcept>
#include <string>

#include "core/types.hpp"

namespace dbi {

class Geometry {
 public:
  /// Default: the paper's JEDEC x8 BL8 group.
  constexpr Geometry() = default;

  /// One DBI group of `width` (1..32) DQ lines.
  constexpr Geometry(const BusConfig& cfg)  // NOLINT
      : width_(cfg.width), burst_length_(cfg.burst_length) {}

  /// `width` (1..64) DQ lines in byte groups, one DBI line per group.
  constexpr Geometry(const WideBusConfig& cfg)  // NOLINT
      : width_(cfg.width),
        burst_length_(cfg.burst_length),
        groups_(cfg.width > 8 ? cfg.groups() : 1) {}

  [[nodiscard]] static constexpr Geometry narrow(int width,
                                                 int burst_length = 8) {
    return BusConfig{width, burst_length};
  }
  [[nodiscard]] static constexpr Geometry wide(int width,
                                               int burst_length = 8) {
    return WideBusConfig{width, burst_length};
  }

  [[nodiscard]] constexpr int width() const { return width_; }
  [[nodiscard]] constexpr int burst_length() const { return burst_length_; }
  [[nodiscard]] constexpr bool is_wide() const { return groups_ > 1; }

  /// DBI groups on the bus: 1 for narrow geometry, ceil(width / 8) for
  /// wide geometry.
  [[nodiscard]] constexpr int groups() const { return groups_; }

  /// The single group as a BusConfig. Valid whenever groups() == 1.
  [[nodiscard]] BusConfig bus() const {
    if (is_wide())
      throw std::logic_error(
          "Geometry::bus(): " + to_string() +
          " has no single-group BusConfig; use wide_bus()");
    return BusConfig{width_, burst_length_};
  }

  /// The byte-group view. Valid whenever every group is at most one
  /// byte wide (wide geometry, or a narrow group of <= 8 lines).
  [[nodiscard]] WideBusConfig wide_bus() const {
    if (!is_wide() && width_ > 8)
      throw std::logic_error("Geometry::wide_bus(): " + to_string() +
                             " is one group wider than a byte; use bus()");
    return WideBusConfig{width_, burst_length_};
  }

  /// Group g as a standalone single-group BusConfig (the unit the
  /// kernels and per-group BusStates operate on).
  [[nodiscard]] constexpr BusConfig group_config(int g) const {
    return is_wide() ? WideBusConfig{width_, burst_length_}.group_config(g)
                     : BusConfig{width_, burst_length_};
  }

  /// Packed beat-major layout sizes (the trace payload / engine packed
  /// input format at this geometry).
  [[nodiscard]] constexpr int bytes_per_beat() const {
    return is_wide() ? groups_
                     : BusConfig{width_, burst_length_}.bytes_per_beat();
  }
  [[nodiscard]] constexpr int bytes_per_burst() const {
    return bytes_per_beat() * burst_length_;
  }

  /// Total lines driven per beat (DQ lines + one DBI line per group).
  [[nodiscard]] constexpr int lines() const { return width_ + groups_; }

  /// Throws std::invalid_argument when the geometry is unusable.
  void validate() const {
    if (is_wide())
      WideBusConfig{width_, burst_length_}.validate();
    else
      BusConfig{width_, burst_length_}.validate();
  }

  [[nodiscard]] std::string to_string() const {
    return (is_wide() ? "wide x" : "x") + std::to_string(width_) + " BL" +
           std::to_string(burst_length_) +
           (is_wide() ? " (" + std::to_string(groups_) + " DBI groups)" : "");
  }

  friend constexpr bool operator==(const Geometry&, const Geometry&) = default;

 private:
  int width_ = 8;
  int burst_length_ = 8;
  int groups_ = 1;
};

}  // namespace dbi
