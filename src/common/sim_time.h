// Virtual-time units. The simulator clock counts nanoseconds in int64, giving ~292 years of
// virtual time — far beyond any experiment here.
#ifndef SRC_COMMON_SIM_TIME_H_
#define SRC_COMMON_SIM_TIME_H_

#include <cstdint>

namespace achilles {

using SimTime = int64_t;      // Absolute virtual time, nanoseconds since simulation start.
using SimDuration = int64_t;  // Virtual-time interval, nanoseconds.

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration Ns(int64_t n) { return n; }
constexpr SimDuration Us(int64_t n) { return n * kMicrosecond; }
constexpr SimDuration Ms(int64_t n) { return n * kMillisecond; }
constexpr SimDuration Sec(int64_t n) { return n * kSecond; }

constexpr double ToMs(SimDuration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToUs(SimDuration d) { return static_cast<double>(d) / kMicrosecond; }

// Converts a double in milliseconds/microseconds to a duration (rounds to nearest ns).
constexpr SimDuration FromMs(double ms) { return static_cast<SimDuration>(ms * kMillisecond); }
constexpr SimDuration FromUs(double us) { return static_cast<SimDuration>(us * kMicrosecond); }

}  // namespace achilles

#endif  // SRC_COMMON_SIM_TIME_H_
