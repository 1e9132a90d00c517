#include "crypto/cbc.hh"

#include <cstring>

#include "sim/logging.hh"

namespace hyperplane {
namespace crypto {

namespace {

void
xorBlock(std::uint8_t *dst, const std::uint8_t *src)
{
    for (std::size_t i = 0; i < aesBlockBytes; ++i)
        dst[i] ^= src[i];
}

} // namespace

std::vector<std::uint8_t>
cbcEncrypt(const Aes &aes, const Iv &iv, const std::uint8_t *plain,
           std::size_t len)
{
    const std::size_t pad = aesBlockBytes - (len % aesBlockBytes);
    std::vector<std::uint8_t> out(len + pad);
    if (len > 0) // an empty message may come with a null plain
        std::memcpy(out.data(), plain, len);
    std::memset(out.data() + len, static_cast<int>(pad), pad);

    const std::uint8_t *chain = iv.data();
    for (std::size_t off = 0; off < out.size(); off += aesBlockBytes) {
        xorBlock(out.data() + off, chain);
        aes.encryptBlock(out.data() + off, out.data() + off);
        chain = out.data() + off;
    }
    return out;
}

std::optional<std::vector<std::uint8_t>>
cbcDecrypt(const Aes &aes, const Iv &iv, const std::uint8_t *cipher,
           std::size_t len)
{
    if (len == 0 || len % aesBlockBytes != 0)
        return std::nullopt;
    std::vector<std::uint8_t> out(len);
    Iv chain = iv;
    for (std::size_t off = 0; off < len; off += aesBlockBytes) {
        aes.decryptBlock(cipher + off, out.data() + off);
        xorBlock(out.data() + off, chain.data());
        std::memcpy(chain.data(), cipher + off, aesBlockBytes);
    }
    const std::uint8_t pad = out.back();
    if (pad == 0 || pad > aesBlockBytes || pad > out.size())
        return std::nullopt;
    for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
        if (out[i] != pad)
            return std::nullopt;
    }
    out.resize(out.size() - pad);
    return out;
}

void
cbcEncryptAligned(const Aes &aes, const Iv &iv, std::uint8_t *data,
                  std::size_t len)
{
    hp_assert(len % aesBlockBytes == 0, "CBC aligned path needs full blocks");
    const std::uint8_t *chain = iv.data();
    for (std::size_t off = 0; off < len; off += aesBlockBytes) {
        xorBlock(data + off, chain);
        aes.encryptBlock(data + off, data + off);
        chain = data + off;
    }
}

void
cbcDecryptAligned(const Aes &aes, const Iv &iv, std::uint8_t *data,
                  std::size_t len)
{
    hp_assert(len % aesBlockBytes == 0, "CBC aligned path needs full blocks");
    Iv chain = iv;
    std::uint8_t saved[aesBlockBytes];
    for (std::size_t off = 0; off < len; off += aesBlockBytes) {
        std::memcpy(saved, data + off, aesBlockBytes);
        aes.decryptBlock(data + off, data + off);
        xorBlock(data + off, chain.data());
        std::memcpy(chain.data(), saved, aesBlockBytes);
    }
}

} // namespace crypto
} // namespace hyperplane
