(* HISA backend over the real power-of-two CKKS scheme (the "HEAAN v1.0"
   target): {!Ckks_backend.Make} with the modulus handle read as [logq]. *)

module C = Chet_crypto.Big_ckks

type config = {
  ctx : C.context;
  rng : Chet_crypto.Sampling.t;
  keys : C.keys;
  secret : C.secret_key option;
}

module B = Ckks_backend.Make (struct
  let backend_name = "heaan"

  type context = C.context
  type keys = C.keys
  type secret_key = C.secret_key
  type plaintext = C.plaintext
  type ciphertext = C.ciphertext

  let slot_count = C.slot_count
  let ring_degree ctx = (C.params ctx).C.n
  let fresh_handle ctx = (C.params ctx).C.log_fresh
  let handle_of = C.logq_of
  let mod_to ctx ct logq = C.mod_down ctx ct ~logq
  let env_of ctx ct = { Hisa.env_n = (C.params ctx).C.n; env_r = 0; env_log_q = C.logq_of ct }
  let encode_real ctx ~handle ~scale values = C.encode_real ctx ~logq:handle ~scale values
  let decode = C.decode
  let encrypt ctx rng (keys : C.keys) pt = C.encrypt ctx rng keys.C.public pt
  let decrypt = C.decrypt
  let add = C.add
  let mul = C.mul
  let add_plain = C.add_plain
  let mul_plain = C.mul_plain
  let add_scalar = C.add_scalar
  let mul_scalar = C.mul_scalar
  let fma_scalar ctx acc x w ~scale = C.add ctx acc (C.mul_scalar ctx x w ~scale)
  let fma_plain ctx acc x p = C.add ctx acc (C.mul_plain ctx x p)
  let rotate = C.rotate
  let rotate_many ctx keys ct ks = Array.map (C.rotate ctx keys ct) ks
  let rescale = C.rescale
  let max_rescale = C.max_rescale
  let scale_of = C.scale_of
end)

let make (cfg : config) : Hisa.t =
  B.make { B.ctx = cfg.ctx; rng = cfg.rng; keys = cfg.keys; secret = cfg.secret }
