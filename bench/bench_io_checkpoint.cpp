// Extension (no paper figure): the I/O subsystem Section II.B describes
// but does not evaluate -- 12 Panasas-attached I/O nodes per CU.  Derives
// the numbers an operations team would have lived by: aggregate file
// system bandwidth, full-memory checkpoint time, defensive-checkpoint
// interval overheads, and the one-file-per-rank metadata storm.
#include <iostream>

#include "io/io_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rr;
  const CliParser cli(argc, argv, {});  // no flags: any --flag exits 2
  const arch::SystemSpec system = arch::make_roadrunner();
  const io::IoSubsystem io(system);

  print_banner(std::cout, "I/O subsystem (extension): Panasas parallel file system");
  Table t({"quantity", "value"});
  t.row().add("I/O nodes").add(io.io_node_count());
  t.row().add("per-CU bandwidth").add(format_double(io.per_cu_bandwidth().gbps(), 2) +
                                      " GB/s");
  t.row().add("aggregate bandwidth").add(
      format_double(io.aggregate_bandwidth().gbps(), 1) + " GB/s");
  t.row().add("full-memory checkpoint size").add(
      format_double(static_cast<double>(io.checkpoint_bytes().b()) / 1e12, 1) + " TB");
  t.row().add("full-memory checkpoint time").add(
      format_double(io.full_checkpoint().sec() / 60.0, 1) + " min");
  t.row().add("metadata storm, file-per-SPE-rank (97,920)").add(
      format_double(io.metadata_storm(97920).sec(), 1) + " s");
  t.row().add("metadata storm, file-per-node (3,060)").add(
      format_double(io.metadata_storm(3060).sec(), 2) + " s");
  t.row().add("Sweep3D input deck read (1 MiB)").add(
      format_double(io.shared_input_read(DataSize::mib(1)).ms(), 1) + " ms");
  t.print(std::cout);

  print_banner(std::cout, "Checkpoint cost vs application state size");
  Table c({"state per node", "checkpoint time", "overhead at 4h interval (%)"});
  for (const double gib : {1.0, 4.0, 8.0, 16.0, 32.0}) {
    const DataSize state = DataSize::gib(gib);
    const Duration ck = io.checkpoint_cost(state);
    c.row()
        .add(format_double(gib, 0) + " GiB")
        .add(format_double(ck.sec() / 60.0, 1) + " min")
        .add(100.0 * io.checkpoint_overhead(state, Duration::seconds(4 * 3600.0)), 2);
  }
  c.print(std::cout);

  std::cout << "\nWhy it matters: writing application state (not the full 32\n"
               "GiB) keeps defensive checkpointing below a percent of a 4-hour\n"
               "interval -- and why one file per SPE rank was never an option.\n";
  return 0;
}
