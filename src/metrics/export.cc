#include "metrics/export.h"

#include <cstdio>
#include <fstream>

#include "base/check.h"

namespace metrics {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string EscapeCsv(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string ToCsv(const std::vector<ResultRow>& rows) {
  const workload::RunResult none;
  return RenderCsv(rows, ResultColumns, ResultRow{"", "", &none});
}

std::string ToJson(const std::vector<ResultRow>& rows) {
  return RenderJson(rows, ResultColumns);
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  SIM_CHECK_MSG(out.good(), "cannot open %s for writing", path.c_str());
  out << content;
  out.close();
  SIM_CHECK_MSG(out.good(), "write to %s failed", path.c_str());
}

}  // namespace metrics
