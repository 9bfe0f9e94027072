module Complexv = Chet_crypto.Complexv

module type SCHEME = sig
  val backend_name : string

  type context
  type keys
  type secret_key
  type plaintext
  type ciphertext

  val slot_count : context -> int
  val ring_degree : context -> int

  val fresh_handle : context -> int
  (** Modulus handle of a fresh ciphertext: the max RNS level (SEAL) or
      [log_fresh] (HEAAN). *)

  val handle_of : ciphertext -> int
  val mod_to : context -> ciphertext -> int -> ciphertext
  val env_of : context -> ciphertext -> Hisa.op_env
  val encode_real : context -> handle:int -> scale:float -> float array -> plaintext
  val decode : context -> plaintext -> Complexv.t
  val encrypt : context -> Chet_crypto.Sampling.t -> keys -> plaintext -> ciphertext
  val decrypt : context -> secret_key -> ciphertext -> plaintext
  val add : context -> ciphertext -> ciphertext -> ciphertext
  val mul : context -> keys -> ciphertext -> ciphertext -> ciphertext
  val add_plain : context -> ciphertext -> plaintext -> ciphertext
  val mul_plain : context -> ciphertext -> plaintext -> ciphertext
  val add_scalar : context -> ciphertext -> float -> ciphertext
  val mul_scalar : context -> ciphertext -> float -> scale:float -> ciphertext
  val fma_scalar : context -> ciphertext -> ciphertext -> float -> scale:float -> ciphertext
  val fma_plain : context -> ciphertext -> ciphertext -> plaintext -> ciphertext
  val rotate : context -> keys -> ciphertext -> int -> ciphertext
  val rotate_many : context -> keys -> ciphertext -> int array -> ciphertext array
  val rescale : context -> ciphertext -> int -> ciphertext
  val max_rescale : context -> ciphertext -> int -> int
  val scale_of : ciphertext -> float
end

module Make (S : SCHEME) = struct
  type config = {
    ctx : S.context;
    rng : Chet_crypto.Sampling.t;
    keys : S.keys;
    secret : S.secret_key option;  (** client-side only; [decrypt] raises without it *)
  }

  (* [fma_scalar] and [fma_plain] are the scheme's own at one modulus
     handle, and the composition they stand for otherwise (the modulus
     switch of the product must come after the multiply to match it);
     [fma_rot] composes the primitives. [rot_many] is the scheme's own
     (hoisted) rotation. *)
  let make (cfg : config) : Hisa.t =
    let module U = struct
      let slots = S.slot_count cfg.ctx

      (* Plaintext handles are lazy: the underlying scheme needs plaintexts
         encoded at a specific modulus handle, which is only known when the
         plaintext meets a ciphertext, so [pt] stores the values and memoises
         per-handle encodings. *)
      type pt = {
        values : float array;
        pscale : float;
        mutable cache : (int * S.plaintext) list; (* handle -> encoded *)
      }

      type ct = S.ciphertext

      let encode values ~scale = { values; pscale = float_of_int scale; cache = [] }

      let encoded pt ~handle =
        match List.assoc_opt handle pt.cache with
        | Some p -> p
        | None ->
            let p = S.encode_real cfg.ctx ~handle ~scale:pt.pscale pt.values in
            pt.cache <- (handle, p) :: pt.cache;
            p

      let decode pt = Array.copy pt.values

      let encrypt pt =
        S.encrypt cfg.ctx cfg.rng cfg.keys (encoded pt ~handle:(S.fresh_handle cfg.ctx))

      let decrypt ct =
        match cfg.secret with
        | None ->
            Herr.raise_err ~backend:S.backend_name ~op:"decrypt"
              (Herr.Invalid_op { reason = "no secret key on this side" })
        | Some sk ->
            let z = S.decode cfg.ctx (S.decrypt cfg.ctx sk ct) in
            { values = z.Complexv.re; pscale = S.scale_of ct; cache = [] }

      let rot_left ct k = S.rotate cfg.ctx cfg.keys ct k

      (* binary ops modulus-switch the fresher operand down, as the scheme's
         user code must do by hand *)
      let handle_match a b =
        let h = Stdlib.min (S.handle_of a) (S.handle_of b) in
        (S.mod_to cfg.ctx a h, S.mod_to cfg.ctx b h)

      let add a b =
        let a, b = handle_match a b in
        S.add cfg.ctx a b

      let mul a b =
        let a, b = handle_match a b in
        S.mul cfg.ctx cfg.keys a b

      let add_plain c p = S.add_plain cfg.ctx c (encoded p ~handle:(S.handle_of c))
      let mul_plain c p = S.mul_plain cfg.ctx c (encoded p ~handle:(S.handle_of c))
      let add_scalar c x = S.add_scalar cfg.ctx c x
      let mul_scalar c x ~scale = S.mul_scalar cfg.ctx c x ~scale:(float_of_int scale)

      let rescale c x = S.rescale cfg.ctx c x
      let max_rescale c ub = S.max_rescale cfg.ctx c ub
      let scale_of c = S.scale_of c
      let env_of c = S.env_of cfg.ctx c
    end in
    (module struct
      include Hisa.Fused_default (U)

      let same_handle a b = S.handle_of a = S.handle_of b

      let fma_scalar acc x w ~scale =
        if same_handle acc x then S.fma_scalar cfg.ctx acc x w ~scale:(float_of_int scale)
        else U.add acc (U.mul_scalar x w ~scale)

      let fma_plain acc x p =
        if same_handle acc x then S.fma_plain cfg.ctx acc x (U.encoded p ~handle:(S.handle_of x))
        else U.add acc (U.mul_plain x p)

      let rot_many ct ks = S.rotate_many cfg.ctx cfg.keys ct ks
    end)
end
