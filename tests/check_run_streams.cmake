# Runs BENCH with telemetry= into a fresh directory under DIR, at
# jobs=1 and at jobs=4, and requires RUNS telemetry streams each time,
# with the same file names.  A bench that numbered each batch from
# run0 would leave fewer streams, a later batch overwriting an earlier
# one's.
#
#   cmake -DBENCH=<binary> -DDIR=<dir> -DRUNS=<count> -P check_run_streams.cmake

foreach(jobs 1 4)
    set(out "${DIR}/jobs${jobs}")
    file(REMOVE_RECURSE "${out}")
    file(MAKE_DIRECTORY "${out}")
    execute_process(
        COMMAND "${BENCH}" scale=4096 cores=2 warm=200 measure=400
                timed=150 "telemetry=${out}/f.telemetry.jsonl"
                jobs=${jobs}
        RESULT_VARIABLE status
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BENCH} jobs=${jobs} exited ${status}")
    endif()
    file(GLOB streams RELATIVE "${out}" "${out}/*.telemetry.jsonl")
    list(LENGTH streams count)
    if(NOT count EQUAL RUNS)
        message(FATAL_ERROR
                "${BENCH} jobs=${jobs} left ${count} streams, not ${RUNS}")
    endif()
    list(SORT streams)
    set(names_${jobs} "${streams}")
endforeach()
if(NOT names_1 STREQUAL names_4)
    message(FATAL_ERROR "${BENCH} names its streams differently at "
                        "jobs=1 and jobs=4")
endif()
