//===- ir/Verifier.h - IR well-formedness checking -------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and type checks over modules. Run after the frontend and
/// after every transformation; the property tests rely on it to catch
/// rewrites that leave the IR inconsistent.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_IR_VERIFIER_H
#define SLO_IR_VERIFIER_H

#include <string>
#include <vector>

namespace slo {

class Module;
class Function;
class DiagnosticEngine;

/// Checks \p F and reports each problem as an error diagnostic (code
/// "verifier", function set to the offending function). Returns true when
/// no problems were found.
bool verifyFunction(const Function &F, DiagnosticEngine &Diags);

/// Checks every function of \p M, reporting into \p Diags. Returns true
/// when no problems were found.
bool verifyModule(const Module &M, DiagnosticEngine &Diags);

/// Compatibility shim over the DiagnosticEngine-based verifyModule:
/// appends each problem to \p Errors as "function 'name': message".
bool verifyModule(const Module &M, std::vector<std::string> &Errors);

/// Convenience wrapper that aborts with the first error. Used by tests
/// and the pipeline in assert-style positions.
void verifyModuleOrDie(const Module &M);

} // namespace slo

#endif // SLO_IR_VERIFIER_H
