# Runs the checkpoint example, then the snapshot inspector on the blob it
# wrote.  Both must exit 0 and the inspector must report a format-v3 blob.
#
#   cmake -DEXAMPLE=<checkpoint_fault_tolerance> -DPYTHON=<python3>
#         -DINSPECT=<tools/snapshot_inspect.py> -P snapshot_inspect.cmake
#
# Run from the directory the blob should land in (the example writes
# checkpoint_fault_tolerance.bcss into its working directory).

execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "checkpoint_fault_tolerance exited with ${rc}")
endif()

execute_process(COMMAND ${PYTHON} ${INSPECT} checkpoint_fault_tolerance.bcss
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot_inspect.py exited with ${rc}")
endif()
if(NOT out MATCHES "BCSS v3 ")
  message(FATAL_ERROR "snapshot_inspect.py did not report a BCSS v3 blob")
endif()
