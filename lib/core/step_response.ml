open Rlc_numerics

(* Relative pole separation below which the repeated-root formula is
   used instead of the two-pole formula. *)
let critical_band = 1e-7

let repeated_root_rate { Pade.b1; b2 } = b1 /. (2.0 *. b2)

let near_critical cs =
  let disc = Pade.discriminant cs in
  Float.abs disc <= critical_band *. cs.Pade.b1 *. cs.Pade.b1

(* Everything [eval] and [derivative] need that does not depend on t:
   the near-critical test, and either the repeated-root rate or the
   poles with the residues s2/(s2-s1), s1/(s2-s1) and s1 s2/(s2-s1).
   Per t only the exponentials remain, in the same operation order as
   the formulas in the interface, so a prepared evaluation is
   bit-identical to evaluating from the coefficients. *)
type prepared =
  | Repeated of float
  | Distinct of { s1 : Cx.t; s2 : Cx.t; r1 : Cx.t; r2 : Cx.t; r12 : Cx.t }

let prepare cs =
  if near_critical cs then Repeated (repeated_root_rate cs)
  else begin
    let { Poles.s1; s2 } = Poles.of_coeffs cs in
    let open Cx in
    let denom = s2 -: s1 in
    Distinct
      { s1; s2; r1 = s1 /: denom; r2 = s2 /: denom; r12 = s1 *: s2 /: denom }
  end

let eval_prepared p t =
  if t < 0.0 then invalid_arg "Step_response.eval: t < 0";
  if t = 0.0 then 0.0
  else
    match p with
    | Repeated a -> 1.0 -. ((1.0 +. (a *. t)) *. Float.exp (-.a *. t))
    | Distinct { s1; s2; r1; r2; _ } ->
        let open Cx in
        let v =
          of_float 1.0 -: (r2 *: exp (scale t s1)) +: (r1 *: exp (scale t s2))
        in
        Cx.real_part_checked ~tol:1e-6 v

let derivative_prepared p t =
  if t < 0.0 then invalid_arg "Step_response.derivative: t < 0";
  match p with
  | Repeated a -> a *. a *. t *. Float.exp (-.a *. t)
  | Distinct { s1; s2; r12; _ } ->
      let open Cx in
      (* dv/dt = -s1 s2/(s2-s1) e^{s1 t} + s1 s2/(s2-s1) e^{s2 t} *)
      let v = r12 *: (exp (scale t s2) -: exp (scale t s1)) in
      Cx.real_part_checked ~tol:1e-6 v

(* t <= 0 is answered before [prepare], which needs b2 > 0 *)
let eval cs t =
  if t < 0.0 then invalid_arg "Step_response.eval: t < 0";
  if t = 0.0 then 0.0 else eval_prepared (prepare cs) t

let eval_stage stage t = eval (Pade.coeffs stage) t

let derivative cs t =
  if t < 0.0 then invalid_arg "Step_response.derivative: t < 0";
  derivative_prepared (prepare cs) t

let waveform ?(v0 = 1.0) ?(n = 2000) cs ~t_end =
  if t_end <= 0.0 then invalid_arg "Step_response.waveform: t_end <= 0";
  let p = prepare cs in
  Rlc_waveform.Waveform.of_fn ~n (fun t -> v0 *. eval_prepared p t) ~t0:0.0
    ~t1:t_end

let overshoot cs =
  let z = Pade.zeta cs in
  if z >= 1.0 then 0.0
  else Float.exp (-.Float.pi *. z /. Float.sqrt (1.0 -. (z *. z)))

let peak_time cs =
  let z = Pade.zeta cs in
  if z >= 1.0 then None
  else begin
    let wn = Pade.omega_n cs in
    Some (Float.pi /. (wn *. Float.sqrt (1.0 -. (z *. z))))
  end

let undershoot_depth cs =
  let ov = overshoot cs in
  ov *. ov
