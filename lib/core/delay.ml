exception No_delay

let of_coeffs ?(f = 0.5) cs =
  if f <= 0.0 || f >= 1.0 then invalid_arg "Delay.of_coeffs: f outside (0,1)";
  if cs.Pade.b1 <= 0.0 || cs.Pade.b2 <= 0.0 then
    invalid_arg "Delay.of_coeffs: non-physical coefficients";
  let p = Step_response.prepare cs in
  let residual t = Step_response.eval_prepared p t -. f in
  (* The Elmore-like constant b1 sets the timescale of the rise. *)
  let dt0 = cs.Pade.b1 /. 32.0 in
  let lo, hi =
    try Rlc_numerics.Roots.bracket_first residual ~t0:0.0 ~dt:dt0
    with Rlc_numerics.Roots.No_bracket -> raise No_delay
  in
  if lo = hi then lo
  else
    Rlc_numerics.Roots.newton_bracketed ~tol:1e-13 ~f:residual
      ~df:(Step_response.derivative_prepared p) lo hi

let of_stage ?f stage = of_coeffs ?f (Pade.coeffs stage)

let per_unit_length ?f stage = of_stage ?f stage /. stage.Stage.h

let elmore_agreement stage =
  let tau_rlc = of_stage stage in
  let tau_rc = of_stage (Stage.with_l stage 0.0) in
  tau_rlc /. tau_rc
