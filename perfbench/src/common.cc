#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <dirent.h>
#include <sched.h>

#include "bench.hh"
#include "obs/json.hh"

namespace pb {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

std::string
SpanLog::chromeJson() const
{
    uhll::JsonWriter w(false);
    w.beginObject();
    w.beginArray("traceEvents");
    for (const Span &s : spans_) {
        w.beginObject();
        w.value("name", s.name);
        w.value("cat", s.layer);
        w.value("ph", "X");
        w.value("ts", s.startUs);
        w.value("dur", s.endUs - s.startUs);
        w.value("pid", uint64_t{0});
        w.value("tid", uint64_t{0});
        w.beginObject("args");
        w.value("op", s.op);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

CpuRotation::CpuRotation()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus_.push_back(c);
    }
    if (cpus_.size() < 2)
        return;
    moveAll(0);
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mu_);
        for (size_t slot = 1;; ++slot) {
            if (cv_.wait_for(lock, std::chrono::milliseconds(100),
                             [this] { return stop_; }))
                return;
            moveAll(slot);
        }
    });
}

CpuRotation::~CpuRotation()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable())
        thread_.join();
}

void
CpuRotation::moveAll(size_t slot)
{
    DIR *dir = opendir("/proc/self/task");
    if (!dir)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    while (const dirent *e = readdir(dir)) {
        const int tid = std::atoi(e->d_name);
        if (tid > 0)
            sched_setaffinity(tid, sizeof one, &one);  // may have exited
    }
    closedir(dir);
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-
    // water mark of the image this process replaced at exec (the
    // Python launcher, here larger than the benchmark itself).
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::string
hostFingerprintJson()
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    uhll::JsonWriter w(false);
    w.beginObject();
    w.value("cpu", cpu);
    w.value("nproc", uint64_t{std::thread::hardware_concurrency()});
    w.value("compiler", PERFBENCH_COMPILER);
    w.value("build_type", PERFBENCH_BUILD_TYPE);
    w.endObject();
    return w.str();
}

double
hostProbeMops()
{
    // A dependent multiply-xorshift chain: integer ALU speed only,
    // no memory traffic and nothing from the library under test.
    constexpr uint64_t kIters = 20'000'000;
    volatile uint64_t seed = 0x9E3779B97F4A7C15ULL;
    uint64_t x = seed;
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
        x ^= x >> 29;
        x *= 0xBF58476D1CE4E5B9ULL;
        x += i;
    }
    const double s = seconds(t0, Clock::now());
    seed = x;
    return double(kIters) / s / 1e6;
}

} // namespace pb
