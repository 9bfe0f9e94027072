(* HISA backend over the BFV integer scheme — the "FV" target of §2.2. BFV
   has no rescaling, so [max_rescale] is constantly 1, exactly the behaviour
   Table 2 prescribes for schemes without rescaling support: fixed-point
   scales grow monotonically and only shallow circuits are practical, which
   is the paper's argument for preferring CKKS. *)

module C = Chet_crypto.Bfv

type config = {
  ctx : C.context;
  rng : Chet_crypto.Sampling.t;
  keys : C.keys;
  secret : C.secret_key option;
}

let make (cfg : config) : Hisa.t =
  (module Hisa.Fused_default (struct
    let slots = C.slot_count cfg.ctx

    type pt = { values : float array; pscale : float }
    type ct = C.ciphertext

    let encode values ~scale = { values; pscale = float_of_int scale }
    let decode pt = Array.copy pt.values
    let encoded pt = C.encode cfg.ctx ~scale:pt.pscale pt.values
    let encrypt pt = C.encrypt cfg.ctx cfg.rng cfg.keys (encoded pt)

    let decrypt ct =
      match cfg.secret with
      | None ->
          Herr.raise_err ~backend:"bfv" ~op:"decrypt"
            (Herr.Invalid_op { reason = "no secret key on this side" })
      | Some sk ->
          let values = C.decode cfg.ctx (C.decrypt cfg.ctx sk ct) ~scale:(C.scale_of ct) in
          { values; pscale = C.scale_of ct }

    let copy ct = ct
    let free _ = ()
    let rot_left ct k = C.rotate cfg.ctx cfg.keys ct k
    let rot_right ct k = C.rotate cfg.ctx cfg.keys ct (-k)
    let add a b = C.add cfg.ctx a b
    let sub a b = C.sub cfg.ctx a b
    let add_plain c p = C.add_plain cfg.ctx c (encoded p)
    let sub_plain c p = C.sub_plain cfg.ctx c (encoded p)

    let add_scalar c x =
      let v = Array.make slots x in
      C.add_plain cfg.ctx c (C.encode cfg.ctx ~scale:(C.scale_of c) v)

    let sub_scalar c x = add_scalar c (-.x)
    let mul a b = C.mul cfg.ctx cfg.keys a b
    let mul_plain c p = C.mul_plain cfg.ctx c (encoded p)

    let mul_scalar c x ~scale =
      let k = int_of_float (Float.round (x *. float_of_int scale)) in
      C.adjust_scale (C.mul_scalar cfg.ctx c k) (float_of_int scale)

    (* no rescaling in BFV: Table 2's maxRescale = 1 *)
    let max_rescale _ _ = 1

    let rescale c x =
      if x = 1 then c
      else
        Herr.raise_err ~backend:"bfv" ~op:"rescale"
          (Herr.Illegal_rescale { divisor = x; reason = "BFV does not support rescaling" })

    let scale_of = C.scale_of

    let env_of _ =
      (* the modulus is fixed for the ciphertext's lifetime *)
      { Hisa.env_n = 2 * slots; env_r = 1; env_log_q = 0 }
  end))
