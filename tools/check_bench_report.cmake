# Checks a committed or freshly written benchmark report: fails when FILE
# is not valid JSON or lacks one of KEYS. A key is a dot-separated path
# into the document, with array elements by index:
#   cmake -DFILE=BENCH_scale.json \
#         -DKEYS=context.host_name,benchmarks.0.csr_bytes \
#         -P tools/check_bench_report.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ "${FILE}" report)
string(STRIP "${report}" report)
if(NOT report MATCHES "}$")  # the parser below ignores trailing bytes
  message(FATAL_ERROR "${FILE}: does not end with its top-level object")
endif()
string(REPLACE "," ";" keys "${KEYS}")
foreach(key IN LISTS keys)
  string(REPLACE "." ";" path "${key}")
  string(JSON value ERROR_VARIABLE error GET "${report}" ${path})
  if(error)
    message(FATAL_ERROR "${FILE}: ${key}: ${error}")
  endif()
endforeach()
message(STATUS "${FILE}: OK")
