module Tab = Pv_util.Tab
module Stats = Pv_util.Stats
module Pipeline = Pv_uarch.Pipeline

let baseline_of = function
  | base :: _ when base.Perf.label = "UNSAFE" -> base
  | _ -> invalid_arg "Perf_report: first run of each row must be UNSAFE"

let labels_of matrix =
  match matrix with
  | (_, runs) :: _ -> List.map (fun r -> r.Perf.label) runs
  | [] -> []

let per_scheme_stats matrix f =
  let labels = labels_of matrix in
  List.mapi
    (fun i label ->
      let values =
        List.map
          (fun (_, runs) ->
            let base = baseline_of runs in
            f ~base (List.nth runs i))
          matrix
      in
      (label, Stats.mean values))
    labels

let average_overhead matrix =
  per_scheme_stats matrix (fun ~base run -> Perf.overhead_pct ~baseline:base run)

let average_throughput_overhead matrix =
  per_scheme_stats matrix (fun ~base run ->
      (1.0 -. Perf.normalized_throughput ~baseline:base run) *. 100.0)

(* --- figures from supervised sweeps ----------------------------------- *)

(* Degraded rendering: a failed cell prints FAILED; a row whose UNSAFE
   baseline failed cannot be normalized, so its surviving cells print "-"
   (their absolute numbers are still in the checkpoint).  Scheme averages
   are taken over the rows where both the baseline and the scheme's cell
   survived, so with no failures they are the full-matrix averages. *)
let failed_cell = "FAILED"

let partial_scheme_stats ~labels matrix f =
  List.mapi
    (fun i _ ->
      let values =
        List.filter_map
          (fun (_, runs) ->
            match runs with
            | Some base :: _ -> (
              match List.nth runs i with Some r -> Some (f ~base r) | None -> None)
            | _ -> None)
          matrix
      in
      if values = [] then None else Some (Stats.mean values))
    labels

let partial_fig ~title ~col0 ~labels ~cell ~avg matrix =
  let tab =
    Tab.create ~title ~header:((col0, Tab.Left) :: List.map (fun l -> (l, Tab.Right)) labels)
  in
  List.iter
    (fun (name, runs) ->
      match runs with
      | Some base :: _ when base.Perf.label <> "UNSAFE" ->
        invalid_arg "Perf_report: first run of each row must be UNSAFE"
      | Some base :: _ ->
        Tab.row tab
          (name
          :: List.map (function Some r -> cell ~base r | None -> failed_cell) runs)
      | None :: _ ->
        Tab.row tab
          (name :: List.map (function Some _ -> "-" | None -> failed_cell) runs)
      | [] -> Tab.row tab [ name ])
    matrix;
  Tab.row tab
    ("avg overhead"
    :: List.map
         (function Some o -> Tab.pct o | None -> "-")
         (partial_scheme_stats ~labels matrix avg));
  tab

let fig_lebench_partial ~labels matrix =
  let tab =
    partial_fig ~title:"Figure 9.2: LEBench normalized latency (lower is better)"
      ~col0:"Test" ~labels
      ~cell:(fun ~base r -> Tab.fl (Perf.normalized_latency ~baseline:base r))
      ~avg:(fun ~base run -> Perf.overhead_pct ~baseline:base run)
      matrix
  in
  Tab.caption tab
    "Paper averages: FENCE 47.5% (select/poll up to 228%), PERSPECTIVE-STATIC 4.1%, \
     PERSPECTIVE 3.6%, PERSPECTIVE++ 3.5%; DOM 23.1%, STT 3.7%.";
  tab

let fig_apps_partial ~labels matrix =
  let tab =
    partial_fig
      ~title:"Figure 9.3: Datacenter requests/second normalized to UNSAFE (higher is better)"
      ~col0:"App" ~labels
      ~cell:(fun ~base r -> Tab.fl (Perf.normalized_throughput ~baseline:base r))
      ~avg:(fun ~base run -> (1.0 -. Perf.normalized_throughput ~baseline:base run) *. 100.0)
      matrix
  in
  Tab.caption tab
    "Paper averages: FENCE 5.7%; PERSPECTIVE-STATIC 1.3%, PERSPECTIVE 1.2%, \
     PERSPECTIVE++ 1.2%.";
  tab

let fence_breakdown matrix =
  let labels = labels_of matrix in
  let tab =
    Tab.create
      ~title:"Table 10.1: Share of fenced loads caused by ISVs vs DSVs (and fences/kinstr)"
      ~header:
        [
          ("Config", Tab.Left);
          ("ISV share", Tab.Right);
          ("DSV share", Tab.Right);
          ("ISV fences/kinstr", Tab.Right);
          ("DSV fences/kinstr", Tab.Right);
        ]
  in
  List.iteri
    (fun i label ->
      if String.length label >= 11 && String.sub label 0 11 = "PERSPECTIVE" then begin
        let isv_tot = ref 0 and dsv_tot = ref 0 in
        let per_k_isv = ref [] and per_k_dsv = ref [] in
        List.iter
          (fun (_, runs) ->
            let r = List.nth runs i in
            isv_tot := !isv_tot + r.Perf.counters.Pipeline.fences_isv;
            dsv_tot := !dsv_tot + r.Perf.counters.Pipeline.fences_dsv;
            let ki, kd = Perf.fences_per_kiloinstr r in
            per_k_isv := ki :: !per_k_isv;
            per_k_dsv := kd :: !per_k_dsv)
          matrix;
        let total = max 1 (!isv_tot + !dsv_tot) in
        Tab.row tab
          [
            label;
            Tab.pct (100.0 *. float_of_int !isv_tot /. float_of_int total);
            Tab.pct (100.0 *. float_of_int !dsv_tot /. float_of_int total);
            Tab.fl (Stats.mean !per_k_isv);
            Tab.fl (Stats.mean !per_k_dsv);
          ]
      end)
    labels;
  Tab.caption tab
    "Paper: ISV 13-27% / DSV 73-87% of fences; about 9 (ISV) and 37 (DSV) \
     fences per kilo-instruction.";
  tab

let stall_breakdown matrix =
  let labels = labels_of matrix in
  let tab =
    Tab.create
      ~title:"Table 10.1 (ext): Stall-cycle attribution per scheme (summed over workloads)"
      ~header:
        (("Config", Tab.Left)
        :: List.map
             (fun (name, _) -> (name, Tab.Right))
             (Pipeline.stall_classes (Pipeline.zero_counters ()))
        @ [ ("total stalls", Tab.Right); ("of cycles", Tab.Right) ])
  in
  List.iteri
    (fun i label ->
      let acc = Pipeline.zero_counters () in
      List.iter
        (fun (_, runs) -> Pipeline.add_counters acc (List.nth runs i).Perf.counters)
        matrix;
      let total = acc.Pipeline.stall_total in
      let share v =
        if total = 0 then "-" else Tab.pct (Stats.ratio_pct ~num:v ~den:total)
      in
      let of_cycles =
        if acc.Pipeline.cycles = 0 then "-"
        else Tab.pct (Stats.ratio_pct ~num:total ~den:acc.Pipeline.cycles)
      in
      Tab.row tab
        (label
        :: List.map (fun (_, v) -> share v) (Pipeline.stall_classes acc)
        @ [ string_of_int total; of_cycles ]))
    labels;
  Tab.caption tab
    "Every zero-commit cycle is charged to exactly one class (DESIGN.md §7), \
     so the class shares sum to 100% of total stalls; fence_isv/fence_dsv are \
     the cycles the schemes' view misses actually cost, complementing the \
     fence counts above.";
  tab

let comparison_summary ~micro ~macro =
  let tab =
    Tab.create ~title:"9.1: Average execution overhead vs UNSAFE (micro / macro)"
      ~header:
        [
          ("Scheme", Tab.Left);
          ("LEBench", Tab.Right);
          ("Datacenter", Tab.Right);
          ("Paper (micro/macro)", Tab.Right);
        ]
  in
  let micro_ov = average_overhead micro in
  let macro_ov = average_throughput_overhead macro in
  let paper = function
    | "UNSAFE" -> "0% / 0%"
    | "FENCE" -> "47.5% / 5.7%"
    | "DOM" -> "23.1% / 1.7%"
    | "STT" -> "3.7% / 0.4%"
    | "PERSPECTIVE-STATIC" -> "4.1% / 1.3%"
    | "PERSPECTIVE" -> "3.6% / 1.2%"
    | "PERSPECTIVE++" -> "3.5% / 1.2%"
    | "RETPOLINE" -> "6.6% / 1.2%"
    | "KPTI+RETPOLINE" -> "14.5% / 5%"
    | _ -> "-"
  in
  List.iter
    (fun (label, mo) ->
      let ao = try List.assoc label macro_ov with Not_found -> nan in
      Tab.row tab
        [
          label;
          Tab.pct mo;
          (if Float.is_nan ao then "-" else Tab.pct ao);
          paper label;
        ])
    micro_ov;
  tab

let kernel_time_table matrix =
  let tab =
    Tab.create ~title:"Chapter 7: Fraction of time spent in the OS (UNSAFE)"
      ~header:[ ("App", Tab.Left); ("Kernel time", Tab.Right); ("Paper", Tab.Right) ]
  in
  let paper = function
    | "httpd" -> "50%"
    | "nginx" -> "65%"
    | "memcached" -> "65%"
    | "redis" -> "53%"
    | _ -> "-"
  in
  List.iter
    (fun (name, runs) ->
      let base = baseline_of runs in
      Tab.row tab
        [ name; Tab.pct (100.0 *. base.Perf.kernel_cycle_fraction); paper name ])
    matrix;
  tab
