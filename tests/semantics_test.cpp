//===- tests/semantics_test.cpp - MiniC language semantics, executed ------===//
//
// End-to-end semantic checks of the hand-rolled frontend + interpreter:
// each case is a MiniC program whose main() returns a value computed
// independently in the test. Parameterized so each construct is its own
// test case.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace slo;

namespace {

struct SemCase {
  const char *Name;
  const char *Source;
  int64_t Expected;
};

// gtest's default printer dumps the struct's bytes, which include the
// addresses of Name and Source; those leak into the discovered ctest names
// and change from build to build. Print the case name instead.
void PrintTo(const SemCase &C, std::ostream *OS) { *OS << C.Name; }

class Semantics : public ::testing::TestWithParam<SemCase> {};

TEST_P(Semantics, MainReturnsExpected) {
  const SemCase &C = GetParam();
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, C.Name, C.Source, Diags);
  ASSERT_TRUE(M) << (Diags.empty() ? "?" : Diags[0]);
  RunOptions O;
  O.SimulateCache = false; // Pure semantics; keep it fast.
  RunResult R = runProgram(*M, std::move(O));
  ASSERT_FALSE(R.Trapped) << C.Name << ": " << R.TrapReason;
  EXPECT_EQ(R.ExitCode, C.Expected) << C.Name;
}

const SemCase Cases[] = {
    {"int_division_truncates",
     "int main() { return (int) ((-7) / 2 * 10 + (-7) % 2); }",
     -31}, // C semantics: -7/2 == -3, -7%2 == -1.
    {"shift_ops",
     "int main() { long a = 1; return (int) ((a << 5) | (64 >> 2)); }",
     48},
    {"bitwise_ops",
     "int main() { return (0xF0 & 0x3C) ^ (0x0F | 0x30); }",
     0x30 ^ 0x3F},
    {"comparison_chain",
     "int main() { return (3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5) "
     "+ (4 == 4) + (4 != 4); }",
     4},
    {"logical_short_circuit_and",
     R"(long g;
        long bump() { g = g + 1; return 0; }
        int main() { long r = (0 != 0) && (bump() != 0); return (int)(g * 10 + r); })",
     0}, // bump never runs.
    {"logical_short_circuit_or",
     R"(long g;
        long bump() { g = g + 1; return 1; }
        int main() { long r = (1 == 1) || (bump() != 0); return (int)(g * 10 + r); })",
     1}, // bump never runs, r == 1.
    {"ternary_selects",
     "int main() { long a = 7; return (int) (a > 5 ? a * 2 : a - 5); }",
     14},
    {"compound_assignment",
     "int main() { long a = 10; a += 5; a -= 3; a *= 4; a /= 6; "
     "return (int) a; }",
     8},
    {"pre_post_increment",
     "int main() { long a = 5; long b = a++; long c = ++a; "
     "return (int) (a * 100 + b * 10 + c); }",
     757},
    {"while_with_break_continue",
     R"(int main() {
          long s = 0; long i = 0;
          while (1) {
            i++;
            if (i > 100) break;
            if (i % 3 == 0) continue;
            s += i;
          }
          return (int) (s % 1000);
        })",
     367}, // sum 1..100 minus multiples of 3 = 5050-1683=3367.
    {"nested_for_loops",
     R"(int main() {
          long s = 0;
          for (long i = 0; i < 10; i++)
            for (long j = i; j < 10; j++)
              s += 1;
          return (int) s;
        })",
     55},
    {"pointer_arith_and_deref",
     R"(int main() {
          long *a = (long*) malloc(10 * 8);
          for (long i = 0; i < 10; i++) a[i] = i * i;
          long *p = a + 3;
          long v = *p + *(p + 2) + p[4];
          free(a);
          return (int) v; // 9 + 25 + 49
        })",
     83},
    {"pointer_compound_advance",
     R"(int main() {
          long *a = (long*) malloc(8 * 8);
          for (long i = 0; i < 8; i++) a[i] = i;
          long *p = a;
          p += 5;
          long x = *p;
          p -= 2;
          x = x * 10 + *p;
          free(a);
          return (int) x; // 53
        })",
     53},
    {"struct_by_pointer_chain",
     R"(struct n { long v; struct n *next; };
        int main() {
          struct n *a = (struct n*) malloc(3 * sizeof(struct n));
          a[0].v = 1; a[1].v = 2; a[2].v = 3;
          a[0].next = &a[1]; a[1].next = &a[2]; a[2].next = 0;
          long s = 0;
          struct n *p = &a[0];
          while (p != 0) { s = s * 10 + p->v; p = p->next; }
          free(a);
          return (int) s;
        })",
     123},
    {"nested_struct_dot_access",
     R"(struct in { long a; long b; };
        struct out { long x; struct in i; long y; };
        int main() {
          struct out o;
          o.x = 1; o.i.a = 2; o.i.b = 3; o.y = 4;
          return (int) (o.x * 1000 + o.i.a * 100 + o.i.b * 10 + o.y);
        })",
     1234},
    {"global_array_indexing",
     R"(long t[16];
        int main() {
          for (long i = 0; i < 16; i++) t[i] = 16 - i;
          return (int) (t[0] + t[15]);
        })",
     17},
    {"struct_array_field",
     R"(struct s { long pad; long vals[4]; };
        int main() {
          struct s x;
          for (long i = 0; i < 4; i++) x.vals[i] = i * 7;
          return (int) (x.vals[1] + x.vals[3]);
        })",
     28},
    {"char_short_truncation",
     R"(int main() {
          char c = (char) 300;   // 300 mod 256 = 44
          short s = (short) 70000; // 70000 mod 65536 = 4464
          return (int) ((long) c + (long) s);
        })",
     44 + 4464},
    {"negative_char_sign_extends",
     R"(int main() {
          char c = (char) 200; // -56 as signed char
          long l = c;
          return (int) (l + 100); // 44
        })",
     44},
    {"float_to_int_truncation",
     "int main() { double d = 9.99; return (int) d * 10 + (int) (-2.7); }",
     88},
    {"mixed_int_float_promotion",
     "int main() { long i = 7; double d = i / 2.0; "
     "return (int) (d * 10.0); }",
     35},
    {"float32_rounding",
     R"(int main() {
          float f = 0.1;
          double d = f;        // widened f32 value differs from 0.1
          if (d == 0.1) return 1;
          return 2;
        })",
     2},
    {"recursion_ackermann_small",
     R"(long ack(long m, long n) {
          if (m == 0) return n + 1;
          if (n == 0) return ack(m - 1, 1);
          return ack(m - 1, ack(m, n - 1));
        }
        int main() { return (int) ack(2, 3); })",
     9},
    {"mutual_recursion",
     R"(long isOdd(long n);
        long isEven(long n) { if (n == 0) return 1; return isOdd(n - 1); }
        long isOdd(long n) { if (n == 0) return 0; return isEven(n - 1); }
        int main() { return (int) (isEven(10) * 10 + isOdd(7)); })",
     11},
    {"function_pointer_in_struct",
     R"(struct ops { long (*apply)(long); long bias; };
        long dbl(long x) { return 2 * x; }
        int main() {
          struct ops o;
          o.apply = dbl;
          o.bias = 3;
          return (int) (o.apply(10) + o.bias);
        })",
     23},
    {"unary_minus_and_not",
     "int main() { long a = 5; return (int) (-a + 10 * !0 + !7); }",
     5},
    {"bitnot",
     "int main() { return (int) (~0 + ~5 + 12); }",
     5}, // -1 + -6 + 12
    {"hex_literals",
     "int main() { return 0xFF - 0x0F; }",
     240},
    {"calloc_zeroes",
     R"(int main() {
          long *p = (long*) calloc(8, 8);
          long s = 0;
          for (long i = 0; i < 8; i++) s += p[i];
          free(p);
          return (int) s;
        })",
     0},
    {"sizeof_values",
     R"(struct s { char c; long l; };   // padded to 16
        int main() {
          return (int) (sizeof(struct s) + sizeof(long) * 100
                        + sizeof(int) * 10 + sizeof(char));
        })",
     16 + 800 + 40 + 1},
    {"for_without_init_or_step",
     R"(int main() {
          long i = 0; long s = 0;
          for (; i < 5;) { s += i; i++; }
          return (int) s;
        })",
     10},
    {"assignment_is_expression",
     "int main() { long a; long b; a = b = 21; return (int) (a + b); }",
     42},
    {"modulo_in_loop_guard",
     R"(int main() {
          long s = 0;
          for (long i = 1; i <= 30; i++)
            if (i % 5 == 0 || i % 7 == 0) s += i;
          return (int) s; // 5+10+15+20+25+30 + 7+14+21+28 = 175
        })",
     175},
};

INSTANTIATE_TEST_SUITE_P(Language, Semantics, ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<SemCase> &I) {
                           return I.param.Name;
                         });

} // namespace
