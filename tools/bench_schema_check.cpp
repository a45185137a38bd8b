// Validates a BENCH_*.json file against the hpm-bench-v1 schema:
//
//   {
//     "schema":  "hpm-bench-v1",
//     "bench":   "<non-empty name>",
//     "smoke":   true|false,
//     "host":    {"nproc": num >= 1, "cpu_model": str, "compiler": str,
//                 "build_type": str}                 (strings non-empty),
//     "results": [ {"name": str, "value": num, "unit": str}, ... ]  (>= 1),
//     "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} }
//   }
//
// The host stamp is required: a figure without the machine and build it
// was measured on cannot be compared with anything.
//
// A report whose "bench" is "dedup" must additionally carry the
// dedup'd-transfer headline rows (first_run.stream_bytes,
// second_run.wire_bytes, second_run.bytes_ratio).
//
// Parsing lives in mini_json.hpp (shared with perf_guard). Exit 0 on a
// valid file, 1 with a diagnostic on stderr otherwise.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "mini_json.hpp"

namespace {

using hpm::tools::json::Parser;
using hpm::tools::json::Value;
using hpm::tools::json::ValuePtr;

int complain(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "bench_schema_check: %s: %s\n", path.c_str(), why.c_str());
  return 1;
}

bool has_row(const Value& results, const std::string& name) {
  for (const ValuePtr& item : results.items) {
    const Value* n = item->get("name");
    if (n != nullptr && n->kind == Value::Kind::String && n->text == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_schema_check <BENCH_file.json>\n");
    return 2;
  }
  const std::string path = argv[1];
  std::ifstream in(path, std::ios::binary);
  if (!in) return complain(path, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  if (src.empty()) return complain(path, "file is empty");

  ValuePtr root;
  try {
    root = Parser(src).parse();
  } catch (const std::exception& e) {
    return complain(path, e.what());
  }
  if (root->kind != Value::Kind::Object) return complain(path, "top level is not an object");

  const Value* schema = root->get("schema");
  if (!schema || schema->kind != Value::Kind::String || schema->text != "hpm-bench-v1") {
    return complain(path, "\"schema\" must be the string \"hpm-bench-v1\"");
  }
  const Value* bench = root->get("bench");
  if (!bench || bench->kind != Value::Kind::String || bench->text.empty()) {
    return complain(path, "\"bench\" must be a non-empty string");
  }
  const Value* smoke = root->get("smoke");
  if (!smoke || smoke->kind != Value::Kind::Bool) {
    return complain(path, "\"smoke\" must be a boolean");
  }
  const Value* host = root->get("host");
  if (!host || host->kind != Value::Kind::Object) {
    return complain(path, "\"host\" must be an object (the host stamp)");
  }
  const Value* nproc = host->get("nproc");
  if (!nproc || nproc->kind != Value::Kind::Number || nproc->number < 1) {
    return complain(path, "host.nproc must be a number >= 1");
  }
  for (const char* field : {"cpu_model", "compiler", "build_type"}) {
    const Value* v = host->get(field);
    if (!v || v->kind != Value::Kind::String || v->text.empty()) {
      return complain(path, std::string("host.") + field + " must be a non-empty string");
    }
  }
  const Value* results = root->get("results");
  if (!results || results->kind != Value::Kind::Array || results->items.empty()) {
    return complain(path, "\"results\" must be a non-empty array");
  }
  for (std::size_t i = 0; i < results->items.size(); ++i) {
    const Value& row = *results->items[i];
    const std::string where = "results[" + std::to_string(i) + "]";
    if (row.kind != Value::Kind::Object) return complain(path, where + " is not an object");
    const Value* name = row.get("name");
    if (!name || name->kind != Value::Kind::String || name->text.empty()) {
      return complain(path, where + ".name must be a non-empty string");
    }
    const Value* value = row.get("value");
    if (!value || value->kind != Value::Kind::Number) {
      return complain(path, where + ".value must be a number");
    }
    const Value* unit = row.get("unit");
    if (!unit || unit->kind != Value::Kind::String) {
      return complain(path, where + ".unit must be a string");
    }
  }
  const Value* metrics = root->get("metrics");
  if (!metrics || metrics->kind != Value::Kind::Object) {
    return complain(path, "\"metrics\" must be an object");
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const Value* s = metrics->get(section);
    if (!s || s->kind != Value::Kind::Object) {
      return complain(path, std::string("metrics.") + section + " must be an object");
    }
  }
  // The focused dedup report (written by table1_migration beside its main
  // JSON) must carry the headline rows the perf guard and the README
  // walkthrough rely on — a rename there would silently defang the gate.
  if (bench->text == "dedup") {
    for (const char* required :
         {"dedup.first_run.stream_bytes", "dedup.second_run.wire_bytes",
          "dedup.second_run.bytes_ratio"}) {
      if (!has_row(*results, required)) {
        return complain(path, std::string("dedup report is missing row ") + required);
      }
    }
  }

  std::printf("bench_schema_check: %s: OK (%zu result rows)\n", path.c_str(),
              results->items.size());
  return 0;
}
