// Process and thread accounting read from /proc, from outside the program:
// per-thread CPU time grouped by thread name, peak RSS, and host steal time.
#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

// Thread groups, by the names the runtime and the benchmark give threads.
enum class ThreadGroup { kPoller, kWorker, kGenerator, kBackend, kOther };
const char* GroupName(ThreadGroup g);
ThreadGroup GroupOf(const std::string& thread_name);

// CPU nanoseconds of every live thread of this process, keyed by tid.
struct ThreadCpu {
  std::map<int, std::pair<std::string, uint64_t>> threads;  // tid -> (name, ns)
  static ThreadCpu Read();
};

// CPU spent per group between two snapshots. Threads that exist only in
// `after` count from zero; threads that ended in between are lost, so take
// snapshots while the service runs.
std::map<ThreadGroup, uint64_t> CpuByGroup(const ThreadCpu& before, const ThreadCpu& after);

// VmHWM of this process in MiB.
double PeakRssMb();

// Host-wide steal ticks (/proc/stat "cpu" line, 8th value).
uint64_t StealTicks();

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
