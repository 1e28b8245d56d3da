// Heterogeneous target platform (paper §2).
//
// m processors with speeds s_u, fully interconnected by bidirectional
// links; the link between P_a and P_b has a unit delay (inverse bandwidth)
// so transferring `volume` units costs volume * unit_delay(a, b).
// Intra-processor communication is free. The one-port constraint itself is
// enforced by schedulers / the simulator, not by this class.
//
// Each processor additionally carries an independent failure probability
// p_u in [0, 1) — zero by default, so the paper's count-ε model is
// unaffected. Probabilistic fault models (schedule/fault_model.hpp) read
// these to derive replication degrees, schedule reliabilities and crash
// samples.
#pragma once

#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/matrix.hpp"
#include "util/types.hpp"

namespace streamsched {

class Platform {
 public:
  Platform() = default;

  /// Platform with the given speeds and one shared unit delay on all links.
  Platform(std::vector<double> speeds, double unit_delay);

  /// Fully specified: speeds plus a symmetric unit-delay matrix (diagonal
  /// entries are forced to zero).
  Platform(std::vector<double> speeds, Matrix<double> unit_delays);

  /// Homogeneous helper: m processors of the given speed, one unit delay.
  [[nodiscard]] static Platform uniform(std::size_t m, double speed, double unit_delay);

  [[nodiscard]] std::size_t num_procs() const { return speeds_.size(); }

  [[nodiscard]] double speed(ProcId u) const;
  // The checked accessors below sit on the schedulers' innermost loops;
  // they are defined here so their checks inline rather than cost a call.
  [[nodiscard]] double unit_delay(ProcId a, ProcId b) const {
    check_proc(a);
    check_proc(b);
    return delays_(a, b);
  }
  void set_unit_delay(ProcId a, ProcId b, double delay);

  /// Time to execute `work` units on processor u.
  [[nodiscard]] double exec_time(double work, ProcId u) const {
    check_proc(u);
    return work / speeds_[u];
  }

  /// Time to transfer `volume` units from a to b (0 when a == b).
  [[nodiscard]] double comm_time(double volume, ProcId a, ProcId b) const {
    check_proc(a);
    check_proc(b);
    if (a == b) return 0.0;
    return volume * delays_(a, b);
  }

  [[nodiscard]] double min_speed() const;
  [[nodiscard]] double max_speed() const;
  [[nodiscard]] double mean_speed() const;
  /// Mean of 1/s_u; average_exec_time(work) = work * mean_inverse_speed().
  [[nodiscard]] double mean_inverse_speed() const;

  /// Extrema / mean over off-diagonal link delays. Zero for m < 2.
  [[nodiscard]] double max_unit_delay() const;
  [[nodiscard]] double min_unit_delay() const;
  [[nodiscard]] double mean_unit_delay() const;

  /// Independent failure probability of processor u (0 by default).
  [[nodiscard]] double failure_prob(ProcId u) const;
  /// Sets one failure probability; must lie in [0, 1).
  void set_failure_prob(ProcId u, double p);
  /// Sets all failure probabilities at once (one entry per processor).
  void set_failure_probs(std::vector<double> probs);
  [[nodiscard]] const std::vector<double>& failure_probs() const { return fail_probs_; }
  [[nodiscard]] double max_failure_prob() const;
  /// True when any processor has a non-zero failure probability.
  [[nodiscard]] bool has_failure_probs() const;

 private:
  void check_proc(ProcId u) const {
    SS_REQUIRE(u < speeds_.size(), "processor id out of range");
  }

  std::vector<double> speeds_;
  Matrix<double> delays_;
  std::vector<double> fail_probs_;
};

}  // namespace streamsched
