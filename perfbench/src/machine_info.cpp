#include "machine_info.hpp"

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

MachineInfo machine_info() {
  MachineInfo m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (m.cpu_model.empty()) m.cpu_model = "unknown";
  m.compiler = PERFBENCH_COMPILER;
  m.build_type = PERFBENCH_BUILD_TYPE;
  return m;
}

std::string MachineInfo::describe() const {
  std::ostringstream os;
  os << "nproc=" << nproc << " cpu=\"" << cpu_model << "\" compiler=\""
     << compiler << "\" build=" << build_type;
  return os.str();
}

double peak_rss_mib() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
