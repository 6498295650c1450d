#include "sweep/cml_sweep.hpp"

#include <array>

#include "sweep/diamond.hpp"
#include "sweep/quadrature.hpp"
#include "util/expect.hpp"

namespace rr::sweep {

namespace {

/// What every rank of one sweep shares: the rank grid, the subgrid each
/// rank owns, and the K blocking.
struct KbaShape {
  KbaConfig cfg;
  int bx = 0;      ///< cells per rank in I
  int by = 0;      ///< cells per rank in J
  int blocks = 0;  ///< K blocks of cfg.mk planes

  KbaShape(int nx, int ny, int nz, const KbaConfig& c) : cfg(c) {
    RR_EXPECTS(c.px >= 1 && c.py >= 1 && c.mk >= 1);
    RR_EXPECTS(nx % c.px == 0);
    RR_EXPECTS(ny % c.py == 0);
    RR_EXPECTS(nz % c.mk == 0);
    bx = nx / c.px;
    by = ny / c.py;
    blocks = nz / c.mk;
  }

  // Row-major placement: rank r sits at (i, j) = (r % px, r / px).
  std::array<int, 2> place(int r) const { return {r % cfg.px, r / cfg.px}; }
  int rank_at(int i, int j) const { return j * cfg.px + i; }

  /// The rank one place from r along `axis` (0 = I, 1 = J) in direction
  /// `step` (+1 or -1), or -1 past the grid's edge.  Octant o's upstream
  /// neighbour in I is step -o.sx, its downstream one +o.sx.
  int neighbour(int r, int axis, int step) const {
    std::array<int, 2> at = place(r);
    at[axis] += step;
    if (at[0] < 0 || at[0] >= cfg.px || at[1] < 0 || at[1] >= cfg.py) return -1;
    return rank_at(at[0], at[1]);
  }

  /// Tag of the message through face `axis` in block b of octant oc.
  int tag(int oc, int b, int axis) const { return (oc * blocks + b) * 2 + axis; }

  /// Doubles in one message through face `axis`: the face's cells in one
  /// block, for all six angles.
  std::size_t surface(int axis) const {
    return static_cast<std::size_t>(axis == 0 ? by : bx) * cfg.mk * kAnglesPerOctant;
  }
};

/// The KBA rank program, written once.  Each block receives its upstream
/// faces, computes (charged as simulated time), then sends its downstream
/// faces.  `Kernel` decides what a block computes and what a message
/// carries; its state lives outside the rank coroutines' frames.
template <typename Kernel>
CmlSweepResult run_ranks(const KbaShape& s, Kernel& kernel, cml::CmlWorld& world,
                         Duration per_cell_angle) {
  RR_EXPECTS(world.size() >= s.cfg.ranks());
  const Duration block_time =
      per_cell_angle *
      (static_cast<std::int64_t>(s.bx) * s.by * s.cfg.mk * kAnglesPerOctant);

  // Each received Message goes to the kernel in the expression that
  // awaits it: one held across a later co_await would sit in every
  // rank's frame.  The receives are awaited from one site and the sends
  // from another (a loop over the axis), since each co_await site keeps
  // its own awaiter in the frame.
  auto program = [&](cml::CmlContext ctx) -> sim::Task<void> {
    const int r = ctx.rank();
    if (r >= s.cfg.ranks()) co_return;
    for (int oc = 0; oc < kOctants; ++oc) {
      const Octant o = octant(oc);
      const std::array<int, 2> up = {s.neighbour(r, 0, -o.sx), s.neighbour(r, 1, -o.sy)};
      const std::array<int, 2> dn = {s.neighbour(r, 0, o.sx), s.neighbour(r, 1, o.sy)};
      for (int b = 0; b < s.blocks; ++b) {
        for (int axis = 0; axis < 2; ++axis)
          if (up[axis] >= 0)
            kernel.inflow(r, axis, co_await ctx.recv(up[axis], s.tag(oc, b, axis)));
        kernel.block(r, oc, b);
        co_await sim::Delay{world.simulator(), block_time};
        for (int axis = 0; axis < 2; ++axis)
          if (dn[axis] >= 0) co_await kernel.outflow(ctx, dn[axis], s.tag(oc, b, axis), r, axis);
      }
    }
  };

  CmlSweepResult result;
  result.ranks = s.cfg.ranks();
  const TimePoint t0 = world.simulator().now();
  const std::uint64_t legs_before = world.network().messages_sent();
  const std::uint64_t events_before = world.simulator().events_run();
  const std::size_t done = world.run(program);
  RR_ENSURES(done == static_cast<std::size_t>(world.size()));  // no deadlock
  result.simulated_time = world.simulator().now() - t0;
  result.messages = world.network().messages_sent() - legs_before;
  result.events = world.simulator().events_run() - events_before;
  return result;
}

/// Sizes only: a block computes nothing, and a message is its length,
/// timed like a payload of that many doubles.
struct SizedKernel {
  const KbaShape& shape;

  void inflow(int, int, cml::Message&&) {}
  void block(int, int, int) {}
  cml::SendAwaiter outflow(cml::CmlContext& ctx, int dst, int tag, int, int axis) {
    return ctx.send_sized(dst, tag, shape.surface(axis));
  }
};

/// Real angular fluxes.  Each rank holds its inflow planes through the I,
/// J and K faces of its subgrid, for all six angles (angle-major); the I
/// and J planes travel downstream as message payloads.
class FluxKernel {
 public:
  FluxKernel(const KbaShape& s, const Problem& p, const std::vector<double>& emission,
             SweepResult& out)
      : s_(s),
        p_(p),
        emission_(emission),
        out_(out),
        angles_(s6_octant_angles()),
        planes_(static_cast<std::size_t>(s.cfg.ranks())) {}

  void inflow(int r, int axis, cml::Message&& m) {
    RR_ASSERT(m.payload.size() == s_.surface(axis));
    planes_[r][axis] = std::move(m.payload);
  }

  void block(int r, int oc, int b) {
    const Octant o = octant(oc);
    const int kb = s_.cfg.mk;
    const std::size_t x_len = static_cast<std::size_t>(s_.by) * kb;  // per angle
    const std::size_t y_len = static_cast<std::size_t>(s_.bx) * kb;
    const std::size_t z_len = static_cast<std::size_t>(s_.bx) * s_.by;
    std::array<std::vector<double>, 3>& pl = planes_[r];
    // Vacuum boundaries: nothing flows in from outside the grid.
    if (s_.neighbour(r, 0, -o.sx) < 0) pl[0].assign(s_.surface(0), 0.0);
    if (s_.neighbour(r, 1, -o.sy) < 0) pl[1].assign(s_.surface(1), 0.0);
    if (b == 0) pl[2].assign(z_len * kAnglesPerOctant, 0.0);

    const auto [pi, pj] = s_.place(r);
    const int ib = pi * s_.bx;
    const int jb = pj * s_.by;
    const int kblock = o.sz > 0 ? b : s_.blocks - 1 - b;
    const int kfirst = o.sz > 0 ? kblock * kb : kblock * kb + kb - 1;
    for (int a = 0; a < kAnglesPerOctant; ++a) {
      const Direction& d = angles_[a];
      const double cx = d.mu / p_.dx;
      const double cy = d.eta / p_.dy;
      const double cz = d.xi / p_.dz;
      double* const x_in = pl[0].data() + a * x_len;
      double* const y_in = pl[1].data() + a * y_len;
      double* const z_in = pl[2].data() + a * z_len;
      for (int kk = 0; kk < kb; ++kk) {
        const int k = kfirst + o.sz * kk;
        for (int jj = 0; jj < s_.by; ++jj) {
          const int j = o.sy > 0 ? jb + jj : jb + s_.by - 1 - jj;
          for (int ii = 0; ii < s_.bx; ++ii) {
            const int i = o.sx > 0 ? ib + ii : ib + s_.bx - 1 - ii;
            const std::size_t cell = p_.idx(i, j, k);
            double& ixf = x_in[static_cast<std::size_t>(kk) * s_.by + (j - jb)];
            double& iyf = y_in[static_cast<std::size_t>(kk) * s_.bx + (i - ib)];
            double& izf = z_in[static_cast<std::size_t>(j - jb) * s_.bx + (i - ib)];
            const detail::CellUpdate u = detail::diamond_cell(
                emission_[cell], p_.sigma_t, cx, cy, cz, ixf, iyf, izf, p_.flux_fixup);
            out_.scalar_flux[cell] += d.weight * u.psi;
            out_.fixups += u.fixups;
            ixf = u.out_x;
            iyf = u.out_y;
            izf = u.out_z;
          }
        }
      }
      // Outflow through the grid's own faces leaks.
      if (s_.neighbour(r, 0, o.sx) < 0) leak(x_in, x_len, d.mu * (p_.dy * p_.dz), d.weight);
      if (s_.neighbour(r, 1, o.sy) < 0) leak(y_in, y_len, d.eta * (p_.dx * p_.dz), d.weight);
      if (b == s_.blocks - 1) leak(z_in, z_len, d.xi * (p_.dx * p_.dy), d.weight);
    }
  }

  cml::SendAwaiter outflow(cml::CmlContext& ctx, int dst, int tag, int r, int axis) {
    return ctx.send(dst, tag, std::move(planes_[r][axis]));
  }

 private:
  void leak(const double* plane, std::size_t n, double cosine_area, double weight) {
    double sum = 0.0;
    for (std::size_t v = 0; v < n; ++v) sum += cosine_area * plane[v];
    out_.leakage += weight * sum;
  }

  const KbaShape& s_;
  const Problem& p_;
  const std::vector<double>& emission_;
  SweepResult& out_;
  std::array<Direction, kAnglesPerOctant> angles_;
  std::vector<std::array<std::vector<double>, 3>> planes_;
};

}  // namespace

CmlSweepResult sweep_once_cml(const Problem& p, const std::vector<double>& emission,
                              const KbaConfig& cfg, cml::CmlWorld& world,
                              Duration per_cell_angle) {
  RR_EXPECTS(emission.size() == p.cells());
  const KbaShape s(p.nx, p.ny, p.nz, cfg);
  SweepResult sweep;
  sweep.scalar_flux.assign(p.cells(), 0.0);
  FluxKernel kernel(s, p, emission, sweep);
  CmlSweepResult result = run_ranks(s, kernel, world, per_cell_angle);
  result.sweep = std::move(sweep);
  return result;
}

CmlSweepResult sweep_once_cml_sized(int nx, int ny, int nz, const KbaConfig& cfg,
                                    cml::CmlWorld& world, Duration per_cell_angle) {
  const KbaShape s(nx, ny, nz, cfg);
  SizedKernel kernel{s};
  return run_ranks(s, kernel, world, per_cell_angle);
}

}  // namespace rr::sweep
