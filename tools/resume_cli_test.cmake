# Crash -> resume through the CLI: each case crashes a checkpointed run (or
# serves to completion), resumes it with `chopperctl resume`, and compares
# the resumed output and WAL with an uninterrupted run of the same flags.
# Every setting that defines the run must survive the round trip through
# the checkpoint's runspec.kv.

function(ctl out_var)
  execute_process(COMMAND ${CTL} ${ARGN} WORKING_DIRECTORY ${DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "chopperctl ${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Crash the run of `flags` at stage barrier `barrier` (after its flush), then
# resume it; the resume's stdout lands in `out_var`.
function(crash_and_resume out_var ckpt barrier)
  file(REMOVE_RECURSE ${DIR}/${ckpt})
  ctl(crashed ${ARGN} --checkpoint ${ckpt} --crash-at-barrier ${barrier}
      --crash-after-flush)
  if(NOT crashed MATCHES "simulated driver crash")
    message(FATAL_ERROR "${ARGN}: no crash at barrier ${barrier}:\n${crashed}")
  endif()
  ctl(resumed resume ${ckpt})
  set(${out_var} "${resumed}" PARENT_SCOPE)
endfunction()

function(expect_same what a b)
  if(NOT "${a}" STREQUAL "${b}")
    message(FATAL_ERROR "${what} differs:\n--- uninterrupted\n${a}\n"
                        "--- resumed\n${b}")
  endif()
endfunction()

function(total_line out_var text)
  string(REGEX MATCH "total simulated time: [0-9.]+s" line "${text}")
  if(line STREQUAL "")
    message(FATAL_ERROR "no 'total simulated time' line in:\n${text}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

function(count_cache_plan out_var wal)
  file(STRINGS ${wal} lines REGEX "\"k\":\"cache_plan\"")
  list(LENGTH lines n)
  set(${out_var} ${n} PARENT_SCOPE)
endfunction()

set(DIR ${WORKDIR}/resume_cli)
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})

# 1. The cost cache policy survives resume: the resumed epoch prices every
#    cached dataset again, as the uninterrupted run's WAL does.
set(KM kmeans_cost)
set(KM_FLAGS run --workload kmeans --tiny --cache-policy cost)
ctl(ref ${KM_FLAGS} --checkpoint ${KM}_ref)
crash_and_resume(resumed ${KM} 6 ${KM_FLAGS})
count_cache_plan(want ${DIR}/${KM}_ref/wal-0.jsonl)
count_cache_plan(got ${DIR}/${KM}/wal-1.jsonl)
if(want EQUAL 0 OR NOT got EQUAL want)
  message(FATAL_ERROR "cache_plan events: ${got} resumed, ${want} uninterrupted")
endif()
total_line(a "${ref}")
total_line(b "${resumed}")
expect_same("kmeans --cache-policy cost total" "${a}" "${b}")

# 2. The plan travels with the checkpoint: resume reads no conf file, so
#    deleting it before the resume changes nothing.
ctl(ignored profile --workload sql --tiny --db sql.chopperdb)
ctl(ignored plan --workload sql --tiny --db sql.chopperdb --out sql.conf)
set(SQL_FLAGS run --workload sql --tiny --conf sql.conf)
ctl(ref ${SQL_FLAGS})
file(REMOVE_RECURSE ${DIR}/sql_conf)
ctl(crashed ${SQL_FLAGS} --checkpoint sql_conf --crash-at-barrier 0
    --crash-after-flush)
file(REMOVE ${DIR}/sql.conf)
ctl(resumed resume sql_conf)
total_line(a "${ref}")
total_line(b "${resumed}")
expect_same("planned sql total" "${a}" "${b}")

# 3. Every recorded run setting at a non-default value: the resumed stage
#    table and totals equal the uninterrupted run's.
set(ALL_FLAGS run --workload kmeans --tiny --scale 0.5 --speculation --aqe
    --mem-scale 0.1 --cache-policy cost)
ctl(ref ${ALL_FLAGS})
crash_and_resume(resumed kmeans_all 4 ${ALL_FLAGS})
set(table_re "stage +name[^\n]*\n.*total simulated time: [0-9.]+s")
string(REGEX MATCH "${table_re}" a "${ref}")
string(REGEX MATCH "${table_re}" b "${resumed}")
if(a STREQUAL "")
  message(FATAL_ERROR "no stage table in:\n${ref}")
endif()
expect_same("kmeans stage table" "${a}" "${b}")

# 4. serve: a finished checkpointed serve resumes by re-admitting each job.
file(REMOVE_RECURSE ${DIR}/serve)
ctl(ignored serve --jobs 3 --mode fair --max-concurrent 2 --tiny
    --cache-policy cost --checkpoint serve)
ctl(resumed resume serve)
string(REGEX MATCHALL "replayed" rows "${resumed}")
list(LENGTH rows n)
if(NOT n EQUAL 3)
  message(FATAL_ERROR "expected 3 replayed jobs, got ${n}:\n${resumed}")
endif()
