#include "src/workload/trace_io.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace silod {
namespace {

constexpr const char* kHeader =
    "id,name,model,gpus,dataset,dataset_bytes,block_bytes,ideal_io_bps,total_bytes,"
    "submit_seconds,regular,curriculum,pacing_start,pacing_alpha,pacing_step";

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

// Reads a row's numeric fields whole.  The first empty, partial, non-finite
// or out-of-range field becomes a row-numbered error naming its column.
struct FieldReader {
  std::int64_t Int(int col, std::int64_t min,
                   std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
    const std::string& text = f[static_cast<std::size_t>(col)];
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    return Check(col, !text.empty() && *end == '\0' && errno == 0 && v >= min && v <= max) ? v
                                                                                           : min;
  }
  // `min` is inclusive; pass denorm_min() for "positive".
  double Real(int col, double min) {
    const std::string& text = f[static_cast<std::size_t>(col)];
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    return Check(col, !text.empty() && *end == '\0' && std::isfinite(v) && v >= min) ? v : min;
  }
  bool Check(int col, bool ok) {
    if (!ok && status.ok()) {
      status = Status::InvalidArgument("row " + std::to_string(row) + ": invalid " +
                                       SplitCsvLine(kHeader)[static_cast<std::size_t>(col)] +
                                       " '" + f[static_cast<std::size_t>(col)] + "'");
    }
    return ok;
  }

  const std::vector<std::string>& f;
  int row;
  Status status;
};

}  // namespace

std::string TraceToCsv(const Trace& trace) {
  std::string out = std::string(kHeader) + "\n";
  char buf[512];
  for (const JobSpec& job : trace.jobs) {
    const Dataset& d = trace.catalog.Get(job.dataset);
    std::snprintf(buf, sizeof(buf),
                  "%d,%s,%s,%d,%s,%" PRId64 ",%" PRId64 ",%.6f,%" PRId64
                  ",%.6f,%d,%d,%.6f,%.6f,%" PRId64 "\n",
                  job.id, job.name.c_str(), job.model.c_str(), job.num_gpus, d.name.c_str(),
                  d.size, d.block_size, job.ideal_io, job.total_bytes, job.submit_time,
                  job.regular ? 1 : 0, job.curriculum ? 1 : 0,
                  job.curriculum_params.starting_percent, job.curriculum_params.alpha,
                  job.curriculum_params.step);
    out += buf;
  }
  return out;
}

Result<Trace> TraceFromCsv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty trace file");
  }
  // Tolerate a trailing \r from Windows editors.
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.pop_back();
  }
  if (line != kHeader) {
    return Status::InvalidArgument("unexpected trace header: " + line);
  }

  Trace trace;
  std::map<std::string, DatasetId> datasets;
  int row = 1;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() != 15) {
      return Status::InvalidArgument("row " + std::to_string(row) + ": expected 15 fields, got " +
                                     std::to_string(f.size()));
    }
    FieldReader r{f, row, Status::Ok()};
    r.Int(0, 0);  // The id column; ids are reassigned in row order.
    JobSpec job;
    job.num_gpus = static_cast<int>(r.Int(3, 1, std::numeric_limits<int>::max()));
    const Bytes dataset_bytes = r.Int(5, 1);
    const Bytes block_bytes = r.Int(6, 1);
    job.ideal_io = r.Real(7, std::numeric_limits<double>::denorm_min());
    job.total_bytes = r.Int(8, 1);
    job.submit_time = r.Real(9, 0);
    job.regular = r.Int(10, 0, 1) == 1;
    job.curriculum = r.Int(11, 0, 1) == 1;
    job.curriculum_params.starting_percent = r.Real(12, 0);
    job.curriculum_params.alpha = r.Real(13, 0);
    job.curriculum_params.step = r.Int(14, 0);
    if (!r.status.ok()) {
      return r.status;
    }
    const std::string& dataset_name = f[4];
    DatasetId dataset_id;
    auto it = datasets.find(dataset_name);
    if (it == datasets.end()) {
      dataset_id = trace.catalog.Add(dataset_name, dataset_bytes, block_bytes);
      datasets.emplace(dataset_name, dataset_id);
    } else {
      dataset_id = it->second;
      const Dataset& existing = trace.catalog.Get(dataset_id);
      if (existing.size != dataset_bytes || existing.block_size != block_bytes) {
        return Status::InvalidArgument("row " + std::to_string(row) + ": dataset '" +
                                       dataset_name + "' redefined with different sizes");
      }
    }

    job.id = static_cast<JobId>(trace.jobs.size());
    job.name = f[1];
    job.model = f[2];
    job.dataset = dataset_id;
    job.step_data_size = MB(4) * job.num_gpus;
    trace.jobs.push_back(std::move(job));
  }
  if (trace.jobs.empty()) {
    return Status::InvalidArgument("trace has no jobs");
  }
  return trace;
}

Status WriteTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << TraceToCsv(trace);
  return out.good() ? Status::Ok() : Status::Internal("write to " + path + " failed");
}

Result<Trace> ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TraceFromCsv(buffer.str());
}

}  // namespace silod
