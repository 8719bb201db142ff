module Kernel = Pv_kernel.Kernel
module Trace = Pv_kernel.Trace

let profile kernel proc ~workload ~repetitions =
  for _ = 1 to repetitions do
    List.iter
      (fun (nr, args) -> ignore (Kernel.exec_syscall kernel proc ~nr ~args))
      workload
  done

let node_set kernel ~ctx = Trace.nodes (Kernel.trace kernel) ~ctx

let generate kernel ~ctx =
  Perspective.Isv.of_nodes (node_set kernel ~ctx)
