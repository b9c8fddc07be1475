#include "spans.h"

#include <fstream>

namespace perfbench {

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& stamp_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"stamp\": " << stamp_json << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
