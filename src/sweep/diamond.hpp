// The diamond-difference cell update shared by the serial and CML sweeps.
//
// Solves, for one cell and one discrete direction, the balance equation
//   sigma_t * psi * V + sum_d c_d * (psi_out_d - psi_in_d) * V = emission * V
// closed with the diamond relation psi_out_d = 2 psi - psi_in_d, where
// c_x = |mu|/dx etc.  The set-to-zero negative-flux fixup removes a face
// from the closure and re-solves, preserving particle balance exactly.
#pragma once

namespace rr::sweep::detail {

struct CellUpdate {
  double psi = 0.0;  ///< cell-average angular flux
  double out_x = 0.0, out_y = 0.0, out_z = 0.0;
  int fixups = 0;
};

inline CellUpdate diamond_cell(double emission, double sigma_t, double cx,
                               double cy, double cz, double in_x, double in_y,
                               double in_z, bool fixup) {
  CellUpdate u;
  bool fx = false, fy = false, fz = false;  // faces forced to zero
  for (int pass = 0; pass < 4; ++pass) {
    double num = emission;
    double den = sigma_t;
    num += fx ? cx * in_x : 2.0 * cx * in_x;
    num += fy ? cy * in_y : 2.0 * cy * in_y;
    num += fz ? cz * in_z : 2.0 * cz * in_z;
    if (!fx) den += 2.0 * cx;
    if (!fy) den += 2.0 * cy;
    if (!fz) den += 2.0 * cz;
    u.psi = num / den;
    u.out_x = fx ? 0.0 : 2.0 * u.psi - in_x;
    u.out_y = fy ? 0.0 : 2.0 * u.psi - in_y;
    u.out_z = fz ? 0.0 : 2.0 * u.psi - in_z;
    if (!fixup) return u;
    bool changed = false;
    if (u.out_x < 0.0 && !fx) { fx = true; changed = true; ++u.fixups; }
    if (u.out_y < 0.0 && !fy) { fy = true; changed = true; ++u.fixups; }
    if (u.out_z < 0.0 && !fz) { fz = true; changed = true; ++u.fixups; }
    if (!changed) return u;
  }
  return u;
}

}  // namespace rr::sweep::detail
