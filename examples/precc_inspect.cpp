// precc_inspect: run the pre-compiler front-end over a C declaration file
// and print the migration-safety report plus generated registration code.
//
//   $ ./examples/precc_inspect [file.h]
//
// Without an argument, analyzes a built-in sample containing both the
// paper's Figure 1 declarations and several migration-unsafe constructs.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "precc/codegen.hpp"
#include "precc/parser.hpp"

namespace {

const char* kSample = R"(
/* The paper's Figure 1 example program declarations. */
struct node {
    float data;
    struct node *link;
};
struct node *first, *last;

/* Shapes from the test_pointer program. */
typedef int row10[10];
row10 *matrix_row;            /* pointer to array of 10 ints   */
int *(*indirections)[10];     /* pointer to array of 10 int*   */
struct tree {
    double weight;
    long depth_tag;
    struct tree *left, *right;
};

/* Migration-unsafe constructs the checker must flag. */
union overlay { int as_int; float as_float; };
void *opaque;                 /* untypable referent            */
int (*callback)(int, int);    /* function pointer              */
long double extended;         /* no portable representation    */
)";

}  // namespace

int main(int argc, char** argv) {
  std::string source = kSample;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  hpm::ti::TypeTable table;
  hpm::precc::Parser parser(table, /*strict=*/false);
  const hpm::precc::ParseResult result = parser.parse(source);

  std::printf("%s\n", hpm::precc::report(table, result).c_str());
  std::printf("generated registration code:\n----\n%s----\n",
              hpm::precc::generate_registration(table, result).c_str());
  return 0;
}
