// The machine a run measured on, and the process's peak memory.
#pragma once

#include <string>

namespace perfbench {

struct MachineInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;

  /// One line: nproc, CPU model, compiler and build type.
  std::string describe() const;
};

MachineInfo machine_info();

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mib();

}  // namespace perfbench
