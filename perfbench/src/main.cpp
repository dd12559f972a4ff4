// perfbench: runs one benchmark workload against the simulator and prints
// everything it measured as one `PERFBENCH_RESULT {json}` line.  run.py
// builds this binary, runs it, and formats the benchmark's result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <file>]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void writeSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  // One JSON object per line: index, name, start/end (ns since the run
  // began), parent span index, and the rank or shard it belongs to.
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}\n";
  }
}

}  // namespace

void Report::samples(const std::string& name, const Samples& s,
                     const std::string& unit) {
  metric(name + ".p50", s.median(), unit);
  metric(name + ".ptail", s.tail(), unit);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %zu samples, ptail is p%.2f", name.c_str(),
                s.size(), s.tailPercentile());
  note(buf);
}

void Report::timing(const std::string& name, const Samples& s,
                    const std::string& unit) {
  metric(name, s.median(), unit);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu samples, min %.6g, q1 %.6g, median %.6g, q3 %.6g, "
                "max %.6g %s",
                name.c_str(), s.size(), s.quantile(0), s.quantile(0.25),
                s.median(), s.quantile(0.75), s.quantile(1), unit.c_str());
  note(buf);
}

void Report::fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  failures_.push_back(what + " (" + std::to_string(n) + ")");
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(1, what);
}

void Report::print() const {
  std::string s = "{\"correct\":";
  s += correct() ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(attempted_);
  s += ",\"failed\":" + std::to_string(failed_);
  // Appends `key: value` pairs (or bare values) separated by commas.
  const auto item = [&s](bool& first, const std::string& text) {
    if (!first) s += ',';
    s += text;
    first = false;
  };
  bool first = true;
  s += ",\"metrics\":{";
  for (const auto& [name, m] : metrics_) {
    item(first, jsonString(name) + ":{\"value\":" + jsonNumber(m.value) +
                    ",\"unit\":" + jsonString(m.unit) + "}");
  }
  s += "},\"context\":{";
  first = true;
  for (const auto& [key, value] : context_) {
    item(first, jsonString(key) + ":" + value);
  }
  s += "},\"absent\":{";
  first = true;
  for (const auto& [prefix, why] : absent_) {
    item(first, jsonString(prefix) + ":" + jsonString(why));
  }
  s += "},\"notes\":[";
  first = true;
  for (const std::string& n : notes_) item(first, jsonString(n));
  s += "],\"failures\":[";
  first = true;
  for (const std::string& f : failures_) item(first, jsonString(f));
  s += "]}";
  std::printf("PERFBENCH_RESULT %s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = val == "1";
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  const auto& names = perfbench::workloadNames();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  perfbench::Report report;
  perfbench::Tracer tracer;
  try {
    perfbench::runWorkload(opt, report, tracer);
  } catch (const std::exception& e) {
    report.fail(1, std::string("workload threw: ") + e.what());
  }
  if (opt.trace && !opt.trace_out.empty()) {
    perfbench::writeSpans(tracer, opt.trace_out);
  }
  report.print();
  return report.correct() ? 0 : 1;
}
