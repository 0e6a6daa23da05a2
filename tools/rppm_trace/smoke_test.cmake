# Round-trip smoke for rppm_trace: synth -> info -> profile with both
# engines, then the same trace with one bit flipped inside a column
# payload (synth --corrupt-at), which `info` and the streaming profiler
# must both reject as a checksum mismatch. Invoked by CTest (see
# CMakeLists.txt).
set(trace "${WORK_DIR}/smoke.rppmtrc")
set(corrupt "${WORK_DIR}/smoke-corrupt.rppmtrc")

function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        list(JOIN ARGV " " cmdline)
        message(FATAL_ERROR "command failed (${rc}): ${cmdline}")
    endif()
endfunction()

# Run a command that must fail with "checksum mismatch" in its output.
function(run_rejects_checksum)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    list(JOIN ARGV " " cmdline)
    if(rc EQUAL 0)
        message(FATAL_ERROR "corrupt trace accepted: ${cmdline}")
    endif()
    string(FIND "${out}${err}" "checksum mismatch" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no checksum mismatch reported (${rc}): "
                            "${cmdline}\n${out}${err}")
    endif()
endfunction()

set(synth_args --records 300000 --sync-period 10000 --name smoke)
run(${RPPM_TRACE} synth ${trace} ${synth_args})
execute_process(COMMAND ${RPPM_TRACE} info ${trace} RESULT_VARIABLE rc
                OUTPUT_VARIABLE info)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): rppm_trace info ${trace}")
endif()
run(${RPPM_TRACE} profile ${trace} --engine fused)
run(${RPPM_TRACE} profile ${trace} --engine streaming
    --stream-chunk 4096 --jobs 2)

# Aim the flip at an odd byte in the middle of the pc payload, located
# from the layout `info` printed. The record is off the sync period, so
# the damage is a plausible pc that only the checksum can catch (a sync
# slot's pc must be zero, which the profiler checks on its own).
if(NOT info MATCHES "pc +[0-9]+ x 4 = +([0-9]+) bytes @ ([0-9]+)")
    message(FATAL_ERROR "no pc column in rppm_trace info output:\n${info}")
endif()
math(EXPR flip "${CMAKE_MATCH_2} + ${CMAKE_MATCH_1} / 2 + 4 * 37 + 1")
run(${RPPM_TRACE} synth ${corrupt} ${synth_args} --corrupt-at ${flip})
run_rejects_checksum(${RPPM_TRACE} info ${corrupt})
run_rejects_checksum(${RPPM_TRACE} profile ${corrupt} --engine streaming
    --stream-chunk 4096 --jobs 2)

file(REMOVE ${trace} ${corrupt})
