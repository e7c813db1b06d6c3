(* Timing, statistics, tracing and counter plumbing shared by every
   workload.  Nothing here reaches into the library: spans wrap calls
   to its public functions, and counters are read from the registry
   the library already keeps. *)

module Metrics = Rlc_instr.Metrics

let now = Unix.gettimeofday

(* ---- growable float buffer ---- *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

(* Percentile of raw sorted samples, linear between closest ranks. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  percentile a 0.5

(* A latency percentile of a run: taken over each window of [window]
   consecutive ops, then averaged over the run's complete windows (a run
   of fewer ops is one window).  The speed of a shared host moves
   between levels that last from seconds to tens of seconds, and each
   level shifts the whole latency distribution.  Over a run that spans
   two levels, a percentile of all ops falls in the gap between the two
   shifted copies, and jumps from one copy to the other from run to
   run; the mean of per-window percentiles moves smoothly with the share
   of time spent at each level.  A window of 1,000 ops puts 10 samples
   beyond its 99th percentile. *)
let window = 1000

let windowed_percentile (lat : float array) q =
  let n = Array.length lat in
  let size = min n window in
  let k = max 1 (n / window) in
  let sum = ref 0.0 in
  for w = 0 to k - 1 do
    let a = Array.sub lat (w * size) size in
    Array.sort Float.compare a;
    sum := !sum +. percentile a q
  done;
  !sum /. float_of_int k

(* ---- spans ---- *)

(* One span per call into a layer: name, start, end, the span that
   caused it (-1 at the op's root) and the op it belongs to.  Spans
   are kept in memory while tracing is on and written out at the end.
   Each workload's traced ops run on the calling domain only, so a
   plain stack gives the parent. *)
type span = {
  mutable name : string;
  op : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let spans : span array ref = ref [||]
let n_spans = ref 0
let stack = ref []
let current_op = ref 0

let open_span name =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s = { name; op = !current_op; parent; t0 = now (); t1 = 0.0 } in
  if !n_spans = Array.length !spans then begin
    let grown = Array.make (max 4096 (2 * !n_spans)) s in
    Array.blit !spans 0 grown 0 !n_spans;
    spans := grown
  end;
  !spans.(!n_spans) <- s;
  incr n_spans;
  stack := (!n_spans - 1) :: !stack;
  s

let close_span s =
  s.t1 <- now ();
  stack := List.tl !stack

let span name f =
  if not !tracing then f ()
  else begin
    let s = open_span name in
    match f () with
    | v ->
        close_span s;
        v
    | exception e ->
        close_span s;
        raise e
  end

(* A span whose name depends on what the call did, e.g. whether a
   what-if evaluation took the update or the refactor path. *)
let span_named f =
  if not !tracing then fst (f ())
  else begin
    let s = open_span "" in
    match f () with
    | v, name ->
        s.name <- name;
        close_span s;
        v
    | exception e ->
        close_span s;
        raise e
  end

(* Runs [f] without recording spans: used around pool fan-outs, whose
   workers run on other domains. *)
let untraced f =
  let was = !tracing in
  tracing := false;
  Fun.protect ~finally:(fun () -> tracing := was) f

(* Per span name: (calls, total self seconds), where self time is the
   span's duration minus the time its direct children cover; plus the
   total time the op-level root spans cover. *)
let self_times () =
  let n = !n_spans in
  let child = Array.make n 0.0 in
  let roots = ref 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let d = s.t1 -. s.t0 in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. d
    else roots := !roots +. d
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let self = s.t1 -. s.t0 -. child.(i) in
    let c, t = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0) in
    Hashtbl.replace tbl s.name (c + 1, t +. self)
  done;
  (tbl, !roots)

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
      (if i = 0 then "" else ",")
      i s.name s.op s.parent s.t0 s.t1
  done;
  output_string oc "]\n";
  close_out oc

(* ---- the machine's speed ---- *)

(* A benchmark that shares its host's cores runs at a speed that moves
   by up to 1.7x between levels lasting from seconds to tens of
   seconds, as the host's other load changes; over a run of tens of
   seconds the share of time spent at each level, and with it every
   timing, moves by 10-20 % from run to run.  So the
   benchmark times a fixed reference kernel next to the program, and
   reports every timing scaled to the speed at which that kernel takes
   [reference_kernel_s]: a time t measured while the kernel took p is
   reported as t * reference_kernel_s / p.  The kernel is the
   benchmark's own code, so a change to the library moves the program's
   times and not the kernel's; the raw times are printed beside the
   scaled ones. *)
let reference_kernel_s = 2.5e-4

(* Float arithmetic over 32 KiB, which stays in the level-1 cache; the
   values are weighted means of their neighbours and stay in [0, 1]. *)
let kernel_data = Array.init 4096 (fun i -> float_of_int i /. 4096.0)

let kernel_pass () =
  let a = kernel_data in
  for _ = 1 to 60 do
    for i = 0 to Array.length a - 2 do
      Array.unsafe_set a i
        ((Array.unsafe_get a i *. 0.999) +. (Array.unsafe_get a (i + 1) *. 0.001))
    done
  done

(* The unix library's clock without boxing its result: reading it
   allocates nothing, so no collection of the program's garbage can
   fall inside a kernel pass's time. *)
external clock : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

(* The time of one kernel pass, after an untimed pass that brings the
   kernel's data back into the cache the program evicted it from. *)
let probe () =
  kernel_pass ();
  let t0 = clock () in
  kernel_pass ();
  clock () -. t0

(* The kernel runs between requests, at most every [probe_every_s]. *)
let probe_every_s = 0.05

(* Each request is scaled by the median of the kernel times within
   [probe_half_width] probes of it, about half a second either way. *)
let probe_half_width = 10

(* A set-up, which runs no requests, is scaled by the median kernel
   time over [setup_probes] probes taken before it, as many after it,
   and those its loops take through [tick] while it runs; the time of
   the probes inside it is not part of its time.  [timed_probed f]
   returns [f]'s result, its time and those probes' times. *)
let setup_probes = 5
let in_setup = samples ()
let in_setup_s = ref 0.0
let last_tick = ref neg_infinity

let tick () =
  let t = now () in
  if t -. !last_tick >= probe_every_s then begin
    push in_setup (probe ());
    let t' = now () in
    in_setup_s := !in_setup_s +. (t' -. t);
    last_tick := t'
  end

let timed_probed f =
  let around () = Array.init setup_probes (fun _ -> probe ()) in
  let before = around () in
  in_setup.len <- 0;
  in_setup_s := 0.0;
  last_tick := now ();
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 -. !in_setup_s in
  (v, dt, Array.concat [ before; Array.sub in_setup.data 0 in_setup.len; around () ])

(* ---- the closed loop ---- *)

type run = {
  attempted : int;
  failed : int;
  wall_s : float;  (** raw seconds spent in requests *)
  busy_s : float;  (** the same, scaled to the reference speed *)
  raw_latencies : float array;  (** seconds, in the order the ops ran *)
  latencies : float array;  (** the same, scaled to the reference speed *)
  speed : float;  (** reference_kernel_s / median kernel time *)
  gc_minor : float;
  gc_promoted : float;
  gc_major : int;
}

(* One client in a closed loop: request [i + 1] is sent only after
   request [i] returned, until [seconds] of wall time have passed.
   [request i ~record] runs one request of one or more ops, passes
   each op's latency and check result to [record], and returns the
   number of ops it ran.  The reference kernel runs between requests
   and is not part of any request's time. *)
let closed_loop_batched ~seconds request =
  let lat = samples () in
  let req_s = samples () and req_ops = samples () and req_probe = samples () in
  let probes = samples () in
  let attempted = ref 0 and failed = ref 0 in
  let record latency ok =
    push lat latency;
    if not ok then incr failed
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let start = now () in
  let stop = start +. seconds in
  let i = ref 0 in
  let t = ref start and last_probe = ref neg_infinity in
  while !t < stop do
    if !t -. !last_probe >= probe_every_s then begin
      push probes (probe ());
      last_probe := now ()
    end;
    current_op := !attempted;
    let t0 = now () in
    let n = request !i ~record in
    t := now ();
    push req_s (!t -. t0);
    push req_ops (float_of_int n);
    push req_probe (float_of_int (probes.len - 1));
    attempted := !attempted + n;
    incr i
  done;
  let g1 = Gc.quick_stat () in
  let np = probes.len in
  let local =
    Array.init np (fun k ->
        let lo = max 0 (k - probe_half_width) and hi = min (np - 1) (k + probe_half_width) in
        median (Array.sub probes.data lo (hi - lo + 1)))
  in
  let raw = Array.sub lat.data 0 lat.len in
  let scaled = Array.make lat.len 0.0 in
  let wall = ref 0.0 and busy = ref 0.0 and j = ref 0 in
  for r = 0 to req_s.len - 1 do
    let f = reference_kernel_s /. local.(truncate req_probe.data.(r)) in
    wall := !wall +. req_s.data.(r);
    busy := !busy +. (req_s.data.(r) *. f);
    for _ = 1 to truncate req_ops.data.(r) do
      scaled.(!j) <- raw.(!j) *. f;
      incr j
    done
  done;
  {
    attempted = !attempted;
    failed = !failed;
    wall_s = !wall;
    busy_s = !busy;
    raw_latencies = raw;
    latencies = scaled;
    speed = reference_kernel_s /. median (Array.sub probes.data 0 np);
    gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* A request of one op; an op that raises counts as failed. *)
let single (op : int -> bool) i ~record =
  let t0 = now () in
  let ok = try op i with _ -> false in
  record (now () -. t0) ok;
  1

let closed_loop ~seconds op = closed_loop_batched ~seconds (single op)

(* Ops per second, scaled to the reference speed and raw. *)
let throughput r = float_of_int r.attempted /. r.busy_s
let raw_throughput r = float_of_int r.attempted /. r.wall_s

(* ---- counters: per-workload deltas of the library's registry ---- *)

let counters () =
  List.filter_map
    (function name, Metrics.Counter_v v -> Some (name, v) | _ -> None)
    (Metrics.snapshot ())

(* Only keys the measured interval touched. *)
let delta before after =
  List.filter_map
    (fun (k, v) ->
      let v0 = Option.value (List.assoc_opt k before) ~default:0.0 in
      if v <> v0 then Some (k, v -. v0) else None)
    after

let get d k = Option.value (List.assoc_opt k d) ~default:0.0

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
