# Hostile nesting must be a diagnostic, never a signal. Each shape below
# once overflowed the frontend's stack (IRGen and AST teardown recurse
# on AST depth, and operator chains build that depth in a loop); now
# slo_driver --advise must exit 1 with the parser's depth diagnostic.
#
#   cmake -DDRIVER=path/to/slo_driver -DWORK_DIR=dir -P hostile_nesting.cmake

string(REPEAT "(" 20000 Parens)
string(REPEAT ")" 20000 Closes)
string(REPEAT "f(" 20000 Calls)
string(REPEAT "{" 200000 Opens)
string(REPEAT "}" 200000 Shuts)
string(REPEAT "1+" 200000 Terms)
string(REPEAT "!" 200000 Bangs)

set(Shapes parens calls blocks chain bang)
set(parens_src "int main() { return ${Parens}1${Closes}; }\n")
set(calls_src "int f(int x) { return x; }\nint main() { return ${Calls}1${Closes}; }\n")
set(blocks_src "int main() { ${Opens}${Shuts} return 0; }\n")
set(chain_src "int main() { return ${Terms}1; }\n")
set(bang_src "int main() { return ${Bangs}1; }\n")

file(MAKE_DIRECTORY "${WORK_DIR}")
set(Failed "")
foreach(Shape IN LISTS Shapes)
  set(File "${WORK_DIR}/${Shape}.minic")
  file(WRITE "${File}" "${${Shape}_src}")
  execute_process(COMMAND "${DRIVER}" --advise "${File}"
                  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
  if(NOT Rc STREQUAL "1")
    list(APPEND Failed "${Shape}: exit '${Rc}', expected 1")
  elseif(NOT Err MATCHES "line [0-9]+: nesting exceeds the parser's depth limit")
    list(APPEND Failed "${Shape}: no depth diagnostic in: ${Err}")
  else()
    message(STATUS "${Shape}: exit 1 with the depth diagnostic")
  endif()
endforeach()
if(Failed)
  list(JOIN Failed "\n  " Report)
  message(FATAL_ERROR "hostile nesting:\n  ${Report}")
endif()
