(* The benchmark's entry point: runs one named workload from a seed, checks
   its answers and prints one JSON result line.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics of an untraced run
   (peak RSS is added by run.py, which sees the process from outside).
   With --trace 1 it runs the workload untraced and then traced, for
   the same time each, and prints the per-layer metrics; the spans are
   written to perfbench/out/. *)

module H = Harness
module Control = Rlc_instr.Control

let workloads = [ "serve-stream"; "whatif-sweep"; "opt-verify"; "opt-verify-j2" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload serve-stream|whatif-sweep|opt-verify|opt-verify-j2 \
     --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when List.mem !workload workloads ->
      (!workload, seed, seconds, trace)
  | _ -> usage ()

(* Set-up runs from scratch at least [min_reps] times, and more while
   the set-ups so far took less than [setup_budget_s], up to [max_reps];
   the last state is kept for the timed run.  The median of the set-up
   times is reported raw and scaled to the reference speed by the
   median of all the kernel times taken around and during them.  A
   cheap set-up is thus timed often enough for its median to be steady,
   and an expensive one only [min_reps] times. *)
let min_reps = 3
let max_reps = 15
let setup_budget_s = 2.0

type setup = { scaled_s : float; raw_s : float }

let timed_setup f =
  let times = ref [] and probes = ref [] and last = ref None and spent = ref 0.0 in
  while
    List.length !times < min_reps
    || (!spent < setup_budget_s && List.length !times < max_reps)
  do
    last := None;
    Gc.full_major ();
    let st, dt, p = H.timed_probed f in
    times := dt :: !times;
    probes := p :: !probes;
    spent := !spent +. dt;
    last := Some st
  done;
  let raw_s = H.median (Array.of_list !times) in
  let kernel_s = H.median (Array.concat !probes) in
  (Option.get !last, { scaled_s = raw_s *. H.reference_kernel_s /. kernel_s; raw_s })

(* The end-to-end metrics, scaled to the reference speed; the raw
   values and the machine's speed relative to the reference go on a
   line of their own before the result. *)
let end_to_end ~setup (r : H.run) =
  let p50 = H.windowed_percentile r.H.latencies 0.5
  and p99 = H.windowed_percentile r.H.latencies 0.99 in
  Printf.printf
    "unscaled: setup_s %.6g  throughput_per_s %.6g  latency_p50_s %.6g  latency_p99_s %.6g  \
     machine_speed %.4f\n"
    setup.raw_s (H.raw_throughput r)
    (H.windowed_percentile r.H.raw_latencies 0.5)
    (H.windowed_percentile r.H.raw_latencies 0.99)
    r.H.speed;
  [
    H.m "setup_s" "s" setup.scaled_s;
    H.m "throughput_per_s" "1/s" (H.throughput r);
    H.m "latency_p50_s" "s" p50;
    H.m "latency_p99_s" "s" p99;
  ]

(* What a traced run knows beyond spans and counters. *)
type extra = {
  memo_hit_ratio : float;
  cache_hit_ratio : float;
  cache_evictions : float;
  parsed_bytes : float;
  nm_results : float;
  domains : float;
}

let no_extra =
  {
    memo_hit_ratio = 0.0;
    cache_hit_ratio = 0.0;
    cache_evictions = 0.0;
    parsed_bytes = 0.0;
    nm_results = 0.0;
    domains = 1.0;
  }

let per_layer ~(traced : H.run) ~(untraced : H.run) ~d ~x =
  let tbl, roots = H.self_times () in
  let find n = Option.value (Hashtbl.find_opt tbl n) ~default:(0, 0.0) in
  let self n = snd (find n) in
  let mean n = match find n with 0, _ -> 0.0 | c, t -> t /. float_of_int c in
  let ops = float_of_int traced.H.attempted in
  let per_op v = v /. ops in
  let c k = H.get d k in
  let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  let steps = c "transient.steps" and rejected = c "transient.rejected_steps" in
  let busy =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"pool.worker" k && String.ends_with ~suffix:".busy_s" k
        then acc +. v
        else acc)
      0.0 d
  in
  [
    H.m "protocol.parse_s" "s" (mean "protocol.parse");
    H.m "protocol.render_s" "s" (mean "protocol.render");
    H.m "parser.parse_s" "s" (mean "parser.parse");
    H.m "parser.bytes_per_s" "B/s"
      (if self "parser.parse" > 0.0 then x.parsed_bytes /. self "parser.parse" else 0.0);
    H.m "netlist.key_s" "s" (mean "netlist.key");
    H.m "assembly.stamp_s" "s" (mean "assembly.stamp");
    H.m "service.memo_s" "s" (mean "service.memo");
    H.m "service.memo_hit_ratio" "1" x.memo_hit_ratio;
    H.m "deck_cache.hit_ratio" "1" x.cache_hit_ratio;
    H.m "deck_cache.evictions" "count" x.cache_evictions;
    H.m "solver.plans" "count/op"
      (per_op (c "solver.plan.banded" +. c "solver.plan.dense" +. c "solver.plan.sparse"));
    H.m "solver.sparse_refactor_count" "count/op"
      (per_op (c "solver.sparse.refactor" +. c "solver.sparse.crefactor"));
    H.m "solver.repivot_count" "count/op" (per_op (c "solver.sparse.repivot"));
    H.m "dc.solve_s" "s" (mean "dc.solve");
    H.m "ac.point_s" "s" (mean "ac.point");
    H.m "whatif.update_s" "s" (mean "whatif.update");
    H.m "whatif.refactor_s" "s" (mean "whatif.refactor");
    H.m "whatif.gradient_s" "s" (mean "whatif.gradient");
    H.m "whatif.update_ratio" "1" (ratio (c "whatif.update") (c "whatif.refactor"));
    H.m "whatif.fallbacks" "count/op" (per_op (c "whatif.fallback"));
    H.m "transient.step_s" "s"
      (if steps > 0.0 then (self "transient.simulate" +. self "transient.adaptive") /. steps
       else 0.0);
    H.m "transient.adaptive_s" "s" (mean "transient.adaptive");
    H.m "transient.steps" "count/op" (per_op steps);
    H.m "transient.rejected_steps" "count/op" (per_op rejected);
    H.m "transient.accept_ratio" "1" (ratio steps rejected);
    H.m "transient.lu_factorizations" "count/op" (per_op (c "transient.lu_cache.miss"));
    H.m "rlc_opt.optimize_s" "s" (mean "rlc_opt.optimize");
    H.m "rlc_opt.newton_iterations" "count/op" (per_op (c "newton.iterations"));
    H.m "rlc_opt.nm_fallback_ratio" "1" (per_op x.nm_results);
    H.m "ladder.build_s" "s" (mean "ladder.build");
    H.m "measure.crossing_s" "s" (mean "measure.crossing");
    H.m "pool.maps" "count/op" (per_op (c "pool.maps"));
    H.m "pool.busy_ratio" "1" (busy /. (traced.H.wall_s *. x.domains));
    H.m "gc.minor_words_per_op" "words/op" (per_op traced.H.gc_minor);
    H.m "gc.promoted_words_per_op" "words/op" (per_op traced.H.gc_promoted);
    H.m "gc.major_collections" "count/op" (per_op (float_of_int traced.H.gc_major));
    H.m "other.self_s" "s/op" (per_op (traced.H.wall_s -. roots));
    H.m "trace.overhead_per_s" "1/s" (H.throughput untraced -. H.throughput traced);
  ]

(* The traced pass: metrics recording and spans on; returns the run
   and the delta of the library's counters over it. *)
let traced_pass ~seconds request =
  Control.set_enabled true;
  let before = H.counters () in
  H.tracing := true;
  let traced = H.closed_loop_batched ~seconds request in
  H.tracing := false;
  (traced, H.delta before (H.counters ()))

let write_trace ~workload ~seed =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  H.write_spans (Filename.concat dir (Printf.sprintf "%s-%d.spans.json" workload seed))

(* ---- workloads ---- *)

let serve ~seed ~seconds ~trace =
  (* the service records metrics, as rlcserved enables them *)
  Control.set_enabled true;
  let jobs = Serve_wl.generate ~seed in
  if not trace then begin
    let st, setup = timed_setup (fun () -> Serve_wl.service_state jobs) in
    let r = H.closed_loop ~seconds (Serve_wl.op st) in
    H.print_result ~correct:(r.H.failed = 0) ~attempted:r.H.attempted ~failed:r.H.failed
      (end_to_end ~setup r)
  end
  else begin
    let svc = Serve_wl.service_state jobs in
    svc.Serve_wl.log <- Some [];
    let untraced = H.closed_loop ~seconds (Serve_wl.op svc) in
    let expected = Array.of_list (List.rev (Option.get svc.Serve_wl.log)) in
    svc.Serve_wl.log <- None;
    Gc.compact ();
    let rep, r = Serve_wl.replica_state jobs in
    rep.Serve_wl.log <- Some [];
    let c0 = Rlc_serve.Deck_cache.stats r.Serve_wl.cache in
    let hits0 = r.Serve_wl.memo_hits and misses0 = r.Serve_wl.memo_misses in
    let bytes0 = r.Serve_wl.parsed_bytes in
    (* the replica's lines must equal the service's byte for byte *)
    let traced, d =
      traced_pass ~seconds
        (H.single (fun i ->
             let ok = Serve_wl.op rep i in
             match rep.Serve_wl.log with
             | Some (line :: _) when i < Array.length expected ->
                 ok && String.equal line expected.(i)
             | _ -> ok))
    in
    let c1 = Rlc_serve.Deck_cache.stats r.Serve_wl.cache in
    let open Rlc_serve.Deck_cache in
    let x =
      {
        no_extra with
        memo_hit_ratio =
          float_of_int (r.Serve_wl.memo_hits - hits0)
          /. float_of_int (r.Serve_wl.memo_hits - hits0 + r.Serve_wl.memo_misses - misses0);
        cache_hit_ratio =
          float_of_int (c1.hits - c0.hits)
          /. float_of_int (c1.hits - c0.hits + c1.misses - c0.misses + c1.aliases - c0.aliases);
        cache_evictions = float_of_int (c1.evictions - c0.evictions);
        parsed_bytes = float_of_int (r.Serve_wl.parsed_bytes - bytes0);
      }
    in
    write_trace ~workload:"serve-stream" ~seed;
    let failed = untraced.H.failed + traced.H.failed in
    H.print_result ~correct:(failed = 0)
      ~attempted:(untraced.H.attempted + traced.H.attempted)
      ~failed
      (per_layer ~traced ~untraced ~d ~x)
  end

let whatif ~seed ~seconds ~trace =
  let points = Whatif_wl.generate ~seed in
  let st, setup = timed_setup (fun () -> Whatif_wl.setup points) in
  if not trace then begin
    let r = H.closed_loop ~seconds (Whatif_wl.op st) in
    let samples, bad = Whatif_wl.check st ~ops:r.H.attempted in
    let failed = r.H.failed + bad in
    H.print_result ~correct:(failed = 0) ~attempted:(r.H.attempted + samples) ~failed
      (end_to_end ~setup r)
  end
  else begin
    let untraced = H.closed_loop ~seconds (Whatif_wl.op st) in
    let traced, d = traced_pass ~seconds (H.single (Whatif_wl.op st)) in
    write_trace ~workload:"whatif-sweep" ~seed;
    let samples, bad = Whatif_wl.check st ~ops:traced.H.attempted in
    let failed = untraced.H.failed + traced.H.failed + bad in
    H.print_result ~correct:(failed = 0)
      ~attempted:(untraced.H.attempted + traced.H.attempted + samples)
      ~failed
      (per_layer ~traced ~untraced ~d ~x:no_extra)
  end

let opt ~workload ~seed ~seconds ~trace =
  let domains = if workload = "opt-verify-j2" then 2 else 1 in
  let cases = Opt_wl.generate ~seed in
  let st, setup = timed_setup (fun () -> Opt_wl.setup ~domains cases) in
  let request = if domains = 1 then H.single (Opt_wl.op st) else Opt_wl.sweep st in
  if not trace then begin
    let r = H.closed_loop_batched ~seconds request in
    H.print_result ~correct:(r.H.failed = 0) ~attempted:r.H.attempted ~failed:r.H.failed
      (end_to_end ~setup r)
  end
  else begin
    let untraced = H.closed_loop_batched ~seconds request in
    st.Opt_wl.nm_results <- 0;
    let traced, d = traced_pass ~seconds request in
    write_trace ~workload ~seed;
    let failed = untraced.H.failed + traced.H.failed in
    H.print_result ~correct:(failed = 0)
      ~attempted:(untraced.H.attempted + traced.H.attempted)
      ~failed
      (per_layer ~traced ~untraced ~d
         ~x:
           {
             no_extra with
             nm_results = float_of_int st.Opt_wl.nm_results;
             domains = float_of_int domains;
           })
  end

let () =
  let workload, seed, seconds, trace = args () in
  match workload with
  | "serve-stream" -> serve ~seed ~seconds ~trace
  | "whatif-sweep" -> whatif ~seed ~seconds ~trace
  | _ -> opt ~workload ~seed ~seconds ~trace
