(* HISA backend over the real RNS-CKKS scheme (the "SEAL v3.1" target):
   {!Ckks_backend.Make} with the modulus handle read as the RNS level. *)

module C = Chet_crypto.Rns_ckks

type config = {
  ctx : C.context;
  rng : Chet_crypto.Sampling.t;
  keys : C.keys;
  secret : C.secret_key option;  (** client-side only; [decrypt] raises without it *)
}

module B = Ckks_backend.Make (struct
  let backend_name = "seal"

  type context = C.context
  type keys = C.keys
  type secret_key = C.secret_key
  type plaintext = C.plaintext
  type ciphertext = C.ciphertext

  let slot_count = C.slot_count
  let ring_degree ctx = (C.params ctx).C.n
  let fresh_handle = C.max_level
  let handle_of = C.level_of
  let mod_to = C.mod_switch_to_level
  let env_of ctx ct = { Hisa.env_n = (C.params ctx).C.n; env_r = C.level_of ct; env_log_q = 0 }
  let encode_real ctx ~handle ~scale values = C.encode_real ctx ~level:handle ~scale values
  let decode = C.decode
  let encrypt ctx rng (keys : C.keys) pt = C.encrypt ctx rng keys.C.public pt
  let decrypt = C.decrypt
  let add = C.add
  let mul = C.mul
  let add_plain = C.add_plain
  let mul_plain = C.mul_plain
  let add_scalar = C.add_scalar
  let mul_scalar = C.mul_scalar
  let fma_scalar = C.fma_scalar
  let fma_plain = C.fma_plain
  let rotate = C.rotate
  let rotate_many = C.rotate_many
  let rescale = C.rescale
  let max_rescale = C.max_rescale
  let scale_of = C.scale_of
end)

let make (cfg : config) : Hisa.t =
  B.make { B.ctx = cfg.ctx; rng = cfg.rng; keys = cfg.keys; secret = cfg.secret }
