#include "fault/checkpoint_policy.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace rr::fault {

double young_interval_s(double checkpoint_s, double mtbf_s) {
  RR_EXPECTS(checkpoint_s > 0.0 && mtbf_s > 0.0);
  return std::sqrt(2.0 * checkpoint_s * mtbf_s);
}

double daly_interval_s(double checkpoint_s, double mtbf_s) {
  RR_EXPECTS(checkpoint_s > 0.0 && mtbf_s > 0.0);
  if (checkpoint_s >= 2.0 * mtbf_s) return mtbf_s;
  const double x = checkpoint_s / (2.0 * mtbf_s);
  const double tau = std::sqrt(2.0 * checkpoint_s * mtbf_s) *
                         (1.0 + std::sqrt(x) / 3.0 + x / 9.0) -
                     checkpoint_s;
  RR_ENSURES(tau > 0.0);
  return tau;
}

double expected_makespan_s(double work_s, double interval_s,
                           double checkpoint_s, double restart_s,
                           double mtbf_s) {
  RR_EXPECTS(work_s > 0.0 && interval_s > 0.0);
  RR_EXPECTS(checkpoint_s >= 0.0 && restart_s >= 0.0 && mtbf_s > 0.0);
  const double segments = work_s / interval_s;
  return mtbf_s * std::exp(restart_s / mtbf_s) *
         std::expm1((interval_s + checkpoint_s) / mtbf_s) * segments;
}

}  // namespace rr::fault
