#include "proc_stats.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// Run time of one thread in ns: schedstat when the kernel has it (ns
// resolution), else utime+stime from stat (tick resolution).
uint64_t ThreadCpuNs(const std::string& dir) {
  const std::string sched = ReadFirstLine(dir + "/schedstat");
  if (!sched.empty()) {
    return std::strtoull(sched.c_str(), nullptr, 10);
  }
  const std::string stat = ReadFirstLine(dir + "/stat");
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return 0;
  }
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  // Fields after the comm: state(3) ... utime(14) stime(15).
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) {
      utime = std::strtoull(field.c_str(), nullptr, 10);
    } else if (i == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000ull / static_cast<uint64_t>(hz > 0 ? hz : 100));
}

}  // namespace

const char* GroupName(ThreadGroup g) {
  switch (g) {
    case ThreadGroup::kPoller:
      return "flick-poller";
    case ThreadGroup::kWorker:
      return "flick-wrk";
    case ThreadGroup::kGenerator:
      return "generator";
    case ThreadGroup::kBackend:
      return "backends";
    case ThreadGroup::kOther:
      return "other";
  }
  return "other";
}

ThreadGroup GroupOf(const std::string& name) {
  if (name == "flick-poller") {
    return ThreadGroup::kPoller;
  }
  if (name.rfind("flick-wrk-", 0) == 0) {
    return ThreadGroup::kWorker;
  }
  if (name == "bench-gen") {
    return ThreadGroup::kGenerator;
  }
  if (name.rfind("lb-", 0) == 0 && name.size() > 3 && name.compare(name.size() - 3, 3, "-be") == 0) {
    return ThreadGroup::kBackend;
  }
  return ThreadGroup::kOther;
}

ThreadCpu ThreadCpu::Read() {
  ThreadCpu out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return out;
  }
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] < '0' || ent->d_name[0] > '9') {
      continue;
    }
    const std::string path = std::string("/proc/self/task/") + ent->d_name;
    const int tid = std::atoi(ent->d_name);
    out.threads[tid] = {ReadFirstLine(path + "/comm"), ThreadCpuNs(path)};
  }
  closedir(dir);
  return out;
}

std::map<ThreadGroup, uint64_t> CpuByGroup(const ThreadCpu& before, const ThreadCpu& after) {
  std::map<ThreadGroup, uint64_t> out;
  for (const auto& [tid, entry] : after.threads) {
    uint64_t base = 0;
    const auto it = before.threads.find(tid);
    if (it != before.threads.end() && it->second.first == entry.first &&
        it->second.second <= entry.second) {
      base = it->second.second;
    }
    out[GroupOf(entry.first)] += entry.second - base;
  }
  return out;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t StealTicks() {
  std::istringstream in(ReadFirstLine("/proc/stat"));
  std::string label;
  in >> label;
  uint64_t v = 0;
  for (int i = 1; i <= 8 && in >> v; ++i) {
    if (i == 8) {
      return v;
    }
  }
  return 0;
}

}  // namespace perfbench
