// Extension: collective-operation costs on the full machine, from the
// analytic tree models validated against the CML DES (Section V.C lists
// barriers, broadcasts and reductions as the operations Sweep3D needs).
// Shows how the deep communication hierarchy (EIB / PCIe / InfiniBand)
// shapes a 97,920-rank collective -- and what the mature PCIe stack buys.
#include <iostream>

#include "comm/collectives.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const DataSize payload = DataSize::bytes(64);
  const auto early = comm::CollectiveLegs::roadrunner(payload, false);
  const auto best = comm::CollectiveLegs::roadrunner(payload, true);

  print_banner(std::cout, "Leg costs per tree level (64 B payload)");
  Table legs({"leg", "early stack (us)", "mature stack (us)"});
  legs.row().add("SPE<->SPE same socket (EIB)").add(early.intra_socket.us(), 2).add(
      best.intra_socket.us(), 2);
  legs.row().add("cross-socket within node (2x PCIe)").add(early.cross_socket.us(), 2).add(
      best.cross_socket.us(), 2);
  legs.row().add("internode (Cell-Opteron-Opteron-Cell)").add(early.internode.us(), 2).add(
      best.internode.us(), 2);
  legs.print(std::cout);

  print_banner(std::cout, "Collective completion time vs rank count");
  Table t({"ranks", "rounds", "barrier early (us)", "barrier mature (us)",
           "allreduce early (us)", "allreduce mature (us)"});
  for (const int n : {8, 32, 1024, 32768, 97920}) {
    t.row()
        .add(n)
        .add(comm::barrier_rounds(n))
        .add(comm::barrier_time(n, early).us(), 1)
        .add(comm::barrier_time(n, best).us(), 1)
        .add(comm::allreduce_time(n, early).us(), 1)
        .add(comm::allreduce_time(n, best).us(), 1);
  }
  t.print(std::cout);

  std::cout
      << "\nReading: the first three rounds ride the EIB (sub-microsecond);\n"
         "every round past 32 ranks pays the full internode path, so the\n"
         "97,920-rank barrier is dominated by its 12 internode rounds --\n"
         "and the early DaCS stack roughly doubles each of them.  This is\n"
         "why CML \"was designed in concert with our Sweep3D\n"
         "implementation\" to need so few global operations (Section V.C).\n";
  return 0;
}
