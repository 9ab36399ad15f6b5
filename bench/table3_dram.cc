// Table III reproduction: DRAM required by SSD-Insider's data structures.
#include <cstdio>

#include "bench_util.h"
#include "host/dram.h"

int main() {
  using namespace insider;

  auto print = [](const char* title, const std::vector<host::DramRow>& rows) {
    bench::PrintHeader(title);
    std::printf("%-20s %12s %12s %12s\n", "data structure", "unit size",
                "# entries", "DRAM (MB)");
    for (const host::DramRow& r : rows) {
      std::printf("%-20s %10zu B %12zu %12.2f\n", r.structure.c_str(),
                  r.unit_bytes, r.entries, r.Megabytes());
    }
    std::printf("%-20s %12s %12s %12.2f\n", "TOTAL", "", "",
                host::TotalMegabytes(rows));
  };

  print("Table III (paper's packed firmware layout)",
        host::PaperDramBudget());

  core::DetectorConfig d;
  ftl::FtlConfig f;
  print("Table III (this implementation's in-memory footprint)",
        host::ActualDramBudget(d, f));

  // Nothing priced here grows with the device: at paper scale (512 GiB) the
  // budget is the default device's.
  ftl::FtlConfig paper;
  paper.geometry = nand::Geometry::PaperScale();
  print("Table III (this implementation at paper scale, 512 GiB)",
        host::ActualDramBudget(d, paper));

  std::printf("\nExpected shape: ~40 MB total with the paper's packed "
              "layout —\naffordable next to the >=1 GB DRAM of modern "
              "SSDs.\n");
  return 0;
}
