#include "sim/log.hpp"

#include <cstdarg>
#include <cstdlib>
#include <cstring>

namespace ib12x::sim {

namespace {

LogLevel level_from_env() {
  const char* env = std::getenv("IB12X_LOG");
  if (env == nullptr) return LogLevel::Warn;
  if (std::strcmp(env, "error") == 0) return LogLevel::Error;
  if (std::strcmp(env, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(env, "info") == 0) return LogLevel::Info;
  if (std::strcmp(env, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(env, "trace") == 0) return LogLevel::Trace;
  return LogLevel::Warn;
}

// Set once up front (env or a test helper).
LogLevel g_level = level_from_env();

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Error: return "E";
    case LogLevel::Warn: return "W";
    case LogLevel::Info: return "I";
    case LogLevel::Debug: return "D";
    case LogLevel::Trace: return "T";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

namespace detail {

void vlog(LogLevel level, Time now, const char* fmt, ...) {
  // Format into a local buffer first so the line reaches stderr whole.
  char line[1024];
  int off = std::snprintf(line, sizeof line, "[%s %12.3fus] ", level_name(level), to_us(now));
  if (off < 0) off = 0;
  if (off < static_cast<int>(sizeof line)) {
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(line + off, sizeof line - static_cast<std::size_t>(off), fmt, ap);
    va_end(ap);
  }
  std::fputs(line, stderr);
  std::fputc('\n', stderr);
}

}  // namespace detail
}  // namespace ib12x::sim
