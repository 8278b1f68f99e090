//===- frontend/Parser.h - MiniC parser ------------------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniC producing a TranslationUnit AST.
/// MiniC has no typedefs, so the usual C ambiguity between casts and
/// parenthesized expressions is resolved with one token of lookahead
/// (types always start with a type keyword).
///
/// The depth of the AST it builds is bounded (MaxDepth in Parser.cpp):
/// IRGen and AST teardown recurse on that depth, so hostile nesting
/// gets a located diagnostic instead of exhausting the stack.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_FRONTEND_PARSER_H
#define SLO_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Token.h"

#include <memory>
#include <string>
#include <vector>

namespace slo {

/// Parses one translation unit.
class Parser {
public:
  Parser(std::vector<Token> Tokens, std::vector<std::string> &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  /// Parses the whole token stream. Returns null when any diagnostic was
  /// emitted.
  std::unique_ptr<TranslationUnit> parse();

private:
  // Token stream helpers.
  const Token &peek(unsigned Ahead = 0) const;
  const Token &advance();
  bool check(TokKind K) const { return peek().is(K); }
  bool match(TokKind K);
  bool expect(TokKind K, const char *Context);
  void error(const std::string &Msg);
  void synchronizeTopLevel();

  bool atTypeStart() const;

  /// One level of recursive descent (see Parser.cpp).
  class Level;
  /// Charges one level of AST depth. Past the limit it reports one
  /// diagnostic, skips to the end of input and returns false.
  bool descend();

  // Grammar productions.
  void parseTopLevel(TranslationUnit &TU);
  void parseStructDecl(TranslationUnit &TU);
  TypeSpec parseTypeSpec();
  TypeSpec parseBaseType();
  void parseFuncRest(TranslationUnit &TU, TypeSpec Ret, std::string Name,
                     bool IsExtern, unsigned Line);

  StmtPtr parseStmt();
  StmtPtr parseBlock();
  StmtPtr parseVarDecl();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseFor();

  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseConditional();
  ExprPtr parseBinaryRHS(int MinPrec, ExprPtr LHS);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  std::vector<Token> Tokens;
  std::vector<std::string> &Diags;
  size_t Pos = 0;
  bool HadError = false;
  /// Levels charged on the current path: recursive productions give
  /// theirs back on return, operator chains keep theirs until the
  /// enclosing statement ends.
  unsigned Depth = 0;
  bool TooDeep = false;
};

} // namespace slo

#endif // SLO_FRONTEND_PARSER_H
